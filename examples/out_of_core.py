"""Out-of-core ExD: column store + streaming encoder + resume.

The matrix lives on disk in a chunked column store; the transform
streams over it in fixed-width blocks under a memory budget (Eq. 4),
checkpointing each block so a killed run resumes bit-identically.
The results match the in-memory path bit for bit.

Run:  python examples/out_of_core.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import exd_transform
from repro.data import synthesize_to_store
from repro.store import ColumnStore, StreamingEncoder, plan_block_width


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # 1. Ingest a dataset surrogate straight into a store.
        store = synthesize_to_store("salina", root / "a.store",
                                    n=1280, seed=3, chunk_width=128)
        m, n = store.shape
        print(f"store: {m}x{n} in {store.n_chunks} chunks "
              f"({store.nbytes / 2**20:.1f} MiB on disk), "
              f"attrs={store.attrs['dataset']!r}")

        # 2. Plan a block width from a byte budget (Eq. 4 shapes).
        budget = 2 << 20
        width = plan_block_width(m, 48, budget, n=n)
        print(f"2 MiB budget -> blocks of {width} columns")

        # 3. Stream the transform with checkpoints.
        enc = StreamingEncoder(store, 48, 0.1, seed=1,
                               memory_budget_bytes=budget,
                               checkpoint_dir=root / "ck")
        t, stats, report = enc.run()
        print(f"fresh run: encoded {report.blocks_encoded} blocks, "
              f"read {report.bytes_read / 2**20:.1f} MiB, "
              f"wrote {report.checkpoints_written} checkpoints")
        print(f"D {t.dictionary.atoms.shape}, nnz(C)={t.coefficients.nnz}, "
              f"alpha={t.alpha:.2f}, converged={stats.all_converged}")

        # 4. Simulate a crash: throw away one encoded block, resume.
        spills = sorted((root / "ck" / "blocks").iterdir())
        spills[1].unlink()
        enc2 = StreamingEncoder(store, 48, 0.1, seed=1,
                                checkpoint_dir=root / "ck")
        t2, _, report2 = enc2.run(resume=True)
        print(f"resume: reused {report2.blocks_reused} blocks, "
              f"re-encoded {report2.blocks_encoded}, "
              f"read {report2.bytes_read / 2**20:.1f} MiB")

        # 5. Bit-identity: streamed == resumed == fully in-memory.
        t_mem, _ = exd_transform(store.as_array(), 48, 0.1, seed=1)
        same = (np.array_equal(t.dictionary.atoms, t_mem.dictionary.atoms)
                and np.array_equal(t.coefficients.data,
                                   t_mem.coefficients.data)
                and np.array_equal(t.coefficients.data,
                                   t2.coefficients.data))
        print(f"streamed / resumed / in-memory bit-identical: {same}")

        # 6. Evolving data: append columns to the store on disk.
        rng = np.random.default_rng(9)
        extra = store.read_columns(rng.integers(0, n, 64))
        store.append_columns(extra + 0.01 * rng.standard_normal(extra.shape))
        print(f"after append: store is {store.shape[0]}x{store.shape[1]} "
              f"in {store.n_chunks} chunks")


if __name__ == "__main__":
    main()
