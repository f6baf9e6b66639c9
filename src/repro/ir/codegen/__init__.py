"""Code generation backends (Section 3.6).

Backends are selected through the registry in
:mod:`repro.ir.codegen.registry` — ``get_backend(name)`` /
``register_backend`` / ``available_backends`` — or, one level up, through
``CompilerOptions(backend="...")``:

* ``python-interp`` (:mod:`repro.ir.codegen.python_backend`) — emits one
  executable Python/numpy function per kernel plus a fused dispatch program;
  the default runtime path, validated for numerical correctness.
* ``python-codegen`` (:mod:`repro.ir.codegen.codegen_backend`) — emits one
  specialised whole-plan ``main_forward``/``main_backward`` source function
  with kernels inlined, buffers and graph index arrays resolved to locals,
  and segment loops unrolled over the schema's relations; bit-identical to
  ``python-interp`` and faster on the compile-once-run-many path.
* ``mixed`` (:mod:`repro.ir.codegen.mixed_backend`) — per-kernel backend
  selection: numpy-bound traversal kernels keep their interp functions,
  dispatch-bound GEMM/projection chains run as whole-plan codegen segments,
  one generated dispatcher calls them in plan order; re-specialised per
  bound graph on the schema's segment occupancy.
* ``cuda-emit`` (:mod:`repro.ir.codegen.cuda_backend`) — emits CUDA-like
  source text for every kernel (specialisations of the GEMM and traversal
  templates); used for inspection and the programming-effort metric, never
  executed.
* :mod:`repro.ir.codegen.host` — emits the host-side dispatch/registration
  code text (the ``TORCH_LIBRARY_FRAGMENT``-style bindings of Figure 5).

Generated sources persist across processes through the on-disk artifact
cache (:mod:`repro.ir.codegen.artifact_cache`, ``$REPRO_CODEGEN_CACHE``).
"""

from repro.ir.codegen.python_backend import GeneratedModule, build_python_module
from repro.ir.codegen.artifact_cache import (
    artifact_cache_stats,
    artifact_key_for,
    default_artifact_cache,
)
from repro.ir.codegen.codegen_backend import build_codegen_module
from repro.ir.codegen.cuda_backend import build_cuda_source
from repro.ir.codegen.host import generate_host_source
from repro.ir.codegen.mixed_backend import MixedGeneratedModule, build_mixed_module
from repro.ir.codegen.registry import (
    Backend,
    BackendOptions,
    SourceModule,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "BackendOptions",
    "GeneratedModule",
    "MixedGeneratedModule",
    "SourceModule",
    "artifact_cache_stats",
    "artifact_key_for",
    "available_backends",
    "build_codegen_module",
    "build_cuda_source",
    "build_mixed_module",
    "build_python_module",
    "default_artifact_cache",
    "generate_host_source",
    "get_backend",
    "register_backend",
]
