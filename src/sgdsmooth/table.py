"""The trajectory table of an ensemble, streamed from its run."""
from __future__ import annotations

import contextlib
import os

import numpy as np

from . import optimizer
from .objectives import Objective

__all__ = ["table_writer"]


@contextlib.contextmanager
def table_writer(path, obj: Objective, schedule: optimizer.StepSchedule, n: int):
    """Yield the `observe` of a `lockstep_run` of n trials on `schedule`
    that writes each trial's record, the rows of `trajectory`, to `path`
    as one `.npy` table of `table_dtype` rows, steps in order and trials
    in order within a step, staged and written `_TABLE_ROWS` at a time.

    The header, written first, is for n*(T+1) rows; when diverged trials
    end early it is rewritten in place, padded to its length.  If the
    run raises, the file is removed.
    """
    fmt = np.lib.format
    size = optimizer._TABLE_ROWS
    buf = np.empty(size, optimizer.table_dtype(schedule.dimension))
    grad_rows = np.empty((size, schedule.dimension))
    header = {"descr": fmt.dtype_to_descr(buf.dtype), "fortran_order": False, "shape": (n * (schedule.total_steps + 1),)}
    filled = 0

    def flush():
        nonlocal filled
        rows = buf[:filled]
        for name, col in optimizer._record_columns(obj, rows["x"], rows["noise_norm"], grad_rows[:filled]).items():
            rows[name] = col
        rows.tofile(fh)
        filled = 0

    def observe(t0, xs, grads, noise, ends):
        nonlocal filled
        xs = xs.reshape(-1, xs.shape[2])
        grads = np.concatenate(grads)
        norms = np.linalg.norm(noise, axis=2).ravel()
        kept = np.arange(len(xs))
        if (ends < t0 + len(noise)).any():  # a record ends in the block
            kept = kept[kept // n + t0 < ends[kept % n]]
        while len(kept):
            r, kept = kept[: size - filled], kept[size - filled :]
            t, trial = np.divmod(r, n)
            rows = buf[filled : filled + len(r)]
            rows["trial"] = trial
            rows["t"] = t0 + t
            # a block lies in one stage
            rows["stage"] = schedule.row_stages(t0, t0 + 1)[0]
            rows["x"] = xs[r]
            rows["noise_norm"] = norms[r]
            grad_rows[filled : filled + len(r)] = grads[r]
            filled += len(r)
            if filled == size:
                flush()

    try:
        with open(path, "wb") as fh:
            fmt.write_array_header_1_0(fh, header)
            start = fh.tell()
            yield observe
            if filled:
                flush()
            rows = (fh.tell() - start) // buf.itemsize
            if rows != header["shape"][0]:
                fh.seek(0)
                fmt.write_array_header_1_0(fh, {**header, "shape": (rows,)})
                # an older numpy may write it shorter
                gap = start - fh.tell()
                if gap:
                    fh.seek(-1, 1)
                    fh.write(b" " * gap + b"\n")
                    fh.seek(8)
                    fh.write((start - 10).to_bytes(2, "little"))
    except BaseException:
        os.remove(path)
        raise
