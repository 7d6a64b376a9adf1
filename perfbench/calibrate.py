"""Processor-speed calibration for timings taken on a shared machine.

On a shared host the same work can take up to twice as long from one
second to the next, per core, with no steal time reported: the processor
itself runs slower while neighbours load it. Over two sets of ten seeded
15-second runs per workload on a shared 2-vCPU host, the interquartile
range of the raw medians was 20% and 33% of their median on
grid_kappa_tau, 7% and 16% on grid_stability_edge, 9% and 25% on
states_stream and 19% and 17% on cli_point; scaled as below, it was at
most 7% on every workload in both sets. Between the sets the raw
cli_point median fell from 1.31 s to 0.80 s while the scaled one went from
1.09 s to 1.15 s. The benchmark therefore times a fixed
kernel on the measuring cores just before and just after each piece of
timed work, and scales the work's time to a reference processor on which
the kernel takes its reference_s. A program change moves the scaled
time exactly as it moves the raw time; a change of machine speed moves
both the work and the kernel and largely cancels.

Two kernels, each resembling the work it calibrates (the closer the
resemblance, the better the slow-downs track each other):

- numpy_kernel: small dense linear algebra driven from Python, like the
  quadrature integrand and the protocol layer;
- startup_kernel: plain bytecode plus unmarshalling and executing a
  synthetic module, like interpreter start-up and imports. Bytecode alone
  under-corrected a cold CLI run and unmarshalling alone over-corrected it.
  It needs no numpy, so run.py can calibrate around the start-up it times.

The reference times are about what the kernels take on the 2-core machine
the benchmark was built on; they only fix the scale.
"""
from __future__ import annotations

import marshal
import os
import statistics
import struct
from time import perf_counter

KERNEL_SAMPLES = 5


def python_kernel() -> int:
    x = 0
    d = {}
    for i in range(7000):
        x += (i * i) % 7
        d[i & 63] = x
    return x


python_kernel.reference_s = 1.0e-3

# a synthetic module: unmarshalling and executing it is what an import does
_MODULE_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a, b, {{'k{i}': a}}]\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return f{i}(self.x)\n"
    for i in range(40))
_MODULE_CODE = marshal.dumps(compile(_MODULE_SOURCE, "<calibration>", "exec"))


def import_kernel() -> int:
    namespace = {}
    for _ in range(2):
        exec(marshal.loads(_MODULE_CODE), namespace)
    return len(namespace)


import_kernel.reference_s = 1.2e-3


def startup_kernel() -> int:
    return python_kernel() + import_kernel()


startup_kernel.reference_s = (python_kernel.reference_s
                              + import_kernel.reference_s)

_NUMPY_DATA = {}


def numpy_kernel() -> float:
    if not _NUMPY_DATA:
        import numpy as np
        a = np.random.default_rng(0).normal(size=(6, 6))
        _NUMPY_DATA.update(np=np, h=a @ a.T + np.eye(6), c=a + 1j * a.T,
                           i2=np.eye(3))
    np, h, c, i2 = (_NUMPY_DATA[k] for k in ("np", "h", "c", "i2"))
    s = 0.0
    for _ in range(10):
        s += float(np.linalg.inv(c + s * 1e-12)[0, 0].real)
        s += float(np.linalg.eigvalsh(h)[0])
        s += float(np.linalg.det(h[:4, :4]))
        m = np.block([[h[:2, :2], h[:2, 2:4]], [h[2:4, :2], h[2:4, 2:4]]])
        s += float((m @ m.T @ m)[0, 0]) * 1e-9
        s += float(np.kron(i2, h[:2, :2])[0, 0])
    return s


numpy_kernel.reference_s = 1.0e-3


def kernel_seconds(kernel) -> float:
    """Median time of a few kernel runs on the current core."""
    times = []
    for _ in range(KERNEL_SAMPLES):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measuring_cpus(count: int) -> list:
    """The first count CPUs this process may run on (fewer if it has fewer)."""
    return sorted(os.sched_getaffinity(0))[:count]


class Clock:
    """Scales timed work by the speed of the cores it ran on.

    The process (and every child it starts afterwards) is pinned to cpus,
    so the cores the kernel measures are the cores the work ran on. With
    several cpus the kernel runs on all of them at once, one forked copy
    per extra core, and their times are averaged: work spread over a pool
    of processes competes for the cores in the same way.
    """

    def __init__(self, cpus, kernel=numpy_kernel):
        self.cpus = sorted(cpus)
        self.kernel = kernel
        os.sched_setaffinity(0, self.cpus)
        kernel()                      # first call pays imports and caches
        self.last = self.sample()

    def sample(self) -> float:
        if len(self.cpus) == 1:
            return kernel_seconds(self.kernel)
        read_fd, write_fd = os.pipe()
        children = []
        for cpu in self.cpus[1:]:
            pid = os.fork()
            if pid == 0:
                try:
                    os.sched_setaffinity(0, {cpu})
                    os.write(write_fd,
                             struct.pack("d", kernel_seconds(self.kernel)))
                finally:
                    os._exit(0)
            children.append(pid)
        os.close(write_fd)
        os.sched_setaffinity(0, {self.cpus[0]})
        times = [kernel_seconds(self.kernel)]
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        for pid in children:
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, self.cpus)
        times += struct.unpack(f"{len(children)}d", data)
        return sum(times) / len(times)

    def factor(self) -> float:
        """Scale for the work done since the previous call."""
        now = self.sample()
        scale = self.kernel.reference_s / (0.5 * (self.last + now))
        self.last = now
        return scale

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()
