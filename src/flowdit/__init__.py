"""flowdit: rotary-embedding diffusion transformers and flow-matching tools.

Modules:
    numkernel    dense f64 array kernels: matmul, grid coordinates, pooling
    autodiff     reverse-mode tape over numpy arrays, the RMS norm included
    rope         multi-axis rotary embeddings and extrapolation scaling
    sampler      timestep schedules, Runge-Kutta solvers, error diagnostics
    dit          transformer blocks, velocity/recognition forward passes,
                 the parameter store (views of one f64 vector),
                 checkpoints (manifest plus NKT1 tensor files)
    contextdrop  time-ramped key/value pooling
    partitioner  patch-grid selection for arbitrary image sizes
    flowlab      exact Gaussian flows, 2-d toys, training loops
"""

from . import autodiff, contextdrop, dit, flowlab, numkernel, partitioner, rope, sampler

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "contextdrop",
    "dit",
    "flowlab",
    "numkernel",
    "partitioner",
    "rope",
    "sampler",
    "__version__",
]
