"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf and compares row count +
sorted-by-name column values against ``oracle_sql()`` via DuckDB.  A
query without an oracle is reported by row count when it is listed in
``__ray_entry__.ROWS_ONLY``, and counted as a FAIL otherwise.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    sort_cols = list(df.columns)
    df = df.sort_values(sort_cols).reset_index(drop=True)
    return df


def compare(a: pd.DataFrame, b: pd.DataFrame) -> tuple[bool, str]:
    if len(a) != len(b):
        return False, f"row count {len(a)} vs {len(b)}"
    if sorted(a.columns) != sorted(b.columns):
        return False, f"columns {sorted(a.columns)} vs {sorted(b.columns)}"
    a, b = normalize(a), normalize(b)
    for col in a.columns:
        x, y = a[col], b[col]
        # the driver's value hash is dtype-sensitive: int64 on one side
        # and float64 on the other hash-mismatches even when every value
        # is equal (r3's moving_window_sum red row — DuckDB HUGEINT →
        # pandas float64).  Flag the dtype-class divergence here so the
        # local gate catches it before the driver does.
        if pd.api.types.is_float_dtype(x) != pd.api.types.is_float_dtype(y):
            return False, (
                f"col {col} dtype class differs: {x.dtype} vs {y.dtype} "
                "(driver hash is dtype-sensitive)"
            )
        if pd.api.types.is_float_dtype(x) or pd.api.types.is_float_dtype(y):
            ok = np.allclose(
                x.astype(float), y.astype(float), rtol=0, atol=1e-9,
                equal_nan=True,
            )
        else:
            ok = x.astype(str).equals(y.astype(str))
        if not ok:
            mism = (x.astype(str) != y.astype(str)).idxmax()
            return False, f"col {col} differs at row {mism}: {x[mism]!r} vs {y[mism]!r}"
    return True, "ok"


def main() -> int:
    argv = list(sys.argv[1:])
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i : i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        logging_level="ERROR", ignore_reinit_error=True,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    con = duckdb.connect()
    # spill to /tmp, never into the repo (a default connection puts
    # temp_directory at ./.tmp — one sf0.1 run spilled 50 GB there)
    con.execute("SET temp_directory = '/tmp/duckdb_oracle_spill'")
    try:
        # fail a runaway oracle fast instead of filling the disk (the
        # sf0.1 minhash recursive CTE spilled /tmp to ENOSPC)
        con.execute("SET max_temp_directory_size = '16GiB'")
    except Exception:
        pass
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entry.queries()
    sqls = entry.oracle_sql(sf_dir)
    failures = 0
    results: dict[str, dict] = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            results[name] = {"status": "FAIL",
                             "err": f"{type(e).__name__}: {e}"}
            continue
        elapsed = time.time() - t0
        if name in sqls:
            try:
                oracle = con.execute(sqls[name]).fetchdf()
            except Exception as e:
                # an oracle-side resource failure (e.g. the sf0.1
                # minhash recursive-CTE spilling /tmp full) must not
                # kill the whole sweep — record it and move on
                print(f"FAIL {name}: oracle raised "
                      f"{type(e).__name__}: {str(e)[:200]}")
                failures += 1
                results[name] = {
                    "status": "FAIL", "rows": len(mine),
                    "err": f"oracle: {type(e).__name__}: {str(e)[:200]}"}
                continue
            ok, msg = compare(mine, oracle)
            status = "ok " if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"{status} {name}: rows={len(mine)} {msg} ({elapsed:.1f}s)")
            results[name] = {"status": status.strip(), "rows": len(mine),
                             "msg": msg, "sec": round(elapsed, 1)}
        elif name in entry.ROWS_ONLY:
            print(f"rows {name}: rows={len(mine)} (no oracle) ({elapsed:.1f}s)")
            results[name] = {"status": "rows_only", "rows": len(mine),
                             "sec": round(elapsed, 1)}
        else:
            print(f"FAIL {name}: no oracle and not in ROWS_ONLY "
                  f"({elapsed:.1f}s)")
            failures += 1
            results[name] = {"status": "FAIL", "rows": len(mine),
                             "err": "no oracle and not in ROWS_ONLY"}
    ray.shutdown()
    if json_out:
        import json

        n_ok = sum(1 for r in results.values() if r["status"] == "ok")
        n_rows = sum(1 for r in results.values() if r["status"] == "rows_only")
        summary = {
            "sf_dir": sf_dir,
            "total": len(results),
            "oracle_ok": n_ok,
            "rows_only": n_rows,
            "fail": failures,
            "queries": results,
        }
        with open(json_out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        print(f"wrote {json_out}: {n_ok} ok + {n_rows} rows-only, "
              f"{failures} FAIL of {len(results)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
