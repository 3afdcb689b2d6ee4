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
    in order within a step, staged and written at most `_TABLE_ROWS` at
    a time.

    The observer reads the engine's views of each block's iterates and
    noise during the call, a chunk of whole steps at a time: at most
    `_TABLE_ROWS` rows, or one step when a step has more.  It derives
    the chunk's noise and gradient norms and copies its rows into the
    buffer by slices, across flushes; only a chunk that holds a row past
    a record's end selects its rows, by one mask.  So a persisted run
    holds O(`_TABLE_ROWS`) rows beyond the bare run.

    The header, written first, is for n*(T+1) rows; when diverged trials
    end early it is rewritten in place, padded to its length.  If the
    run raises, the file is removed.
    """
    fmt = np.lib.format
    size = optimizer._TABLE_ROWS
    buf = np.empty(size, optimizer.table_dtype(schedule.dimension))
    header = {"descr": fmt.dtype_to_descr(buf.dtype), "fortran_order": False, "shape": (n * (schedule.total_steps + 1),)}
    # a chunk is `per` whole steps, one when a step has more than `size`
    # rows; its row r is trial trial_of[r] at step step_of[r] of the chunk
    per = max(1, size // max(1, n))
    trial_of = np.tile(np.arange(n), per)
    step_of = np.repeat(np.arange(per), n)
    filled = 0

    def flush():
        nonlocal filled
        rows = buf[:filled]
        cols = optimizer._record_columns(obj, rows["x"], rows["noise_norm"], rows["grad_norm"])
        for name in ("f", "dist2", "out_of_box"):
            rows[name] = cols[name]
        rows.tofile(fh)
        filled = 0

    def observe(t0, xs, grads, noise, ends):
        nonlocal filled
        # a block lies in one stage
        stage = schedule.row_stages(t0, t0 + 1)[0]
        for s0 in range(0, len(xs), per):
            s1 = min(s0 + per, len(xs))
            m = (s1 - s0) * n
            cols = {
                "trial": trial_of[:m],
                "t": step_of[:m] + (t0 + s0),
                "x": xs[s0:s1].reshape(m, xs.shape[2]),
                "noise_norm": np.linalg.norm(noise[s0:s1], axis=2).reshape(m),
                "grad_norm": np.linalg.norm(np.concatenate(grads[s0:s1]), axis=1),
            }
            if (ends < t0 + s1).any():  # a row of the chunk lies past a record's end
                keep = cols["t"] < ends[cols["trial"]]
                cols = {name: col[keep] for name, col in cols.items()}
                m = len(cols["t"])
            # copy by slices into the buffer, flushing it whenever it fills
            done = 0
            while done < m:
                k = min(size - filled, m - done)
                rows = buf[filled : filled + k]
                for name, col in cols.items():
                    rows[name] = col[done : done + k]
                rows["stage"] = stage
                filled += k
                done += k
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
