"""SHARD001/SHARD002: cross-file kernel registration, purity, pickling."""

from __future__ import annotations

import textwrap
from pathlib import Path


def src(code: str) -> str:
    return textwrap.dedent(code).lstrip()


#: dispatch module registering a kernel defined in another file, the way
#: repro.engine.sharding hands repro.testbed.collection.collect_rows to
#: its pool.
DISPATCH = src(
    """
    from mylib.kernels import collect
    def run_shards(plan, ranges, kernel, worker=None, initializer=None):
        return [kernel(plan, lo, hi) for lo, hi in ranges]
    def go(plan, ranges):
        return run_shards(plan, ranges, kernel=collect)
    """
)


def project(kernel_source: str) -> dict[str, str]:
    return {
        "src/mylib/engine.py": DISPATCH,
        "src/mylib/kernels.py": src(kernel_source),
    }


class TestShardKernelPurity:
    def test_mutating_shared_param_fires(self, lint):
        findings = lint(
            project(
                """
                def collect(plan, lo, hi):
                    plan.network.dirty = True
                    return None
                """
            ),
            select=["SHARD001"],
        )
        assert [f.code for f in findings] == ["SHARD001"]
        assert findings[0].path == "src/mylib/kernels.py"
        assert "'plan'" in findings[0].message

    def test_mutation_through_alias_fires(self, codes):
        # network = plan.network taints 'network'
        assert codes(
            project(
                """
                def collect(plan, lo, hi):
                    network = plan.network
                    network.counters[0] = 1
                    return None
                """
            ),
            select=["SHARD001"],
        ) == ["SHARD001"]

    def test_global_write_fires(self, codes):
        assert codes(
            project(
                """
                _CACHE = None
                def collect(plan, lo, hi):
                    global _CACHE
                    _CACHE = plan
                    return None
                """
            ),
            select=["SHARD001"],
        ) == ["SHARD001"]

    def test_pure_kernel_clean(self, codes):
        # fresh arrays from call results are shard-local: writable
        assert (
            codes(
                project(
                    """
                    import numpy as np
                    def collect(plan, lo, hi):
                        network = plan.network
                        out = np.zeros(hi - lo)
                        out[:] = network.base_latency[lo:hi]
                        rows = out * 2.0
                        return rows
                    """
                ),
                select=["SHARD001"],
            )
            == []
        )

    def test_unregistered_function_not_checked(self, codes):
        # same mutation, but nothing dispatches it as a kernel
        assert (
            codes(
                {
                    "src/mylib/kernels.py": src(
                        """
                        def helper(plan, lo, hi):
                            plan.network.dirty = True
                        """
                    )
                },
                select=["SHARD001"],
            )
            == []
        )

    def test_positional_run_shards_registration(self, codes):
        # run_shards(plan, ranges, collect) registers positionally too
        sources = {
            "src/mylib/engine.py": src(
                """
                from mylib.kernels import collect
                def run_shards(plan, ranges, kernel, worker=None):
                    return [kernel(plan, lo, hi) for lo, hi in ranges]
                def go(plan, ranges):
                    return run_shards(plan, ranges, collect)
                """
            ),
            "src/mylib/kernels.py": src(
                """
                def collect(plan, lo, hi):
                    plan.tally += 1
                """
            ),
        }
        assert codes(sources, select=["SHARD001"]) == ["SHARD001"]


class TestExecutorCallableModuleLevel:
    def test_lambda_worker_fires(self, lint):
        findings = lint(
            src(
                """
                from mylib.engine import run_shards
                def go(plan, ranges, kernel):
                    return run_shards(plan, ranges, kernel=kernel, worker=lambda r: r)
                """
            ),
            select=["SHARD002"],
        )
        assert [f.code for f in findings] == ["SHARD002"]
        assert "lambda" in findings[0].message

    def test_nested_function_worker_fires(self, codes):
        assert codes(
            src(
                """
                from mylib.engine import run_shards
                def go(plan, ranges, kernel):
                    def w(r):
                        return r
                    return run_shards(plan, ranges, kernel=kernel, worker=w)
                """
            ),
            select=["SHARD002"],
        ) == ["SHARD002"]

    def test_nested_initializer_via_executor_fires(self, codes):
        assert codes(
            src(
                """
                from concurrent.futures import ProcessPoolExecutor
                def go(plan):
                    def init():
                        pass
                    return ProcessPoolExecutor(4, initializer=init)
                """
            ),
            select=["SHARD002"],
        ) == ["SHARD002"]

    def test_module_level_worker_clean(self, codes):
        assert (
            codes(
                src(
                    """
                    from mylib.engine import run_shards
                    def _run_shard(r):
                        return r
                    def go(plan, ranges, kernel):
                        return run_shards(plan, ranges, kernel=kernel, worker=_run_shard)
                    """
                ),
                select=["SHARD002"],
            )
            == []
        )

    def test_cross_file_nested_def_fires(self, codes):
        # resolved through imports to a def nested in another module
        sources = {
            "src/mylib/helpers.py": src(
                """
                def make():
                    def inner(r):
                        return r
                    return inner
                """
            ),
            "src/mylib/use.py": src(
                """
                from mylib.helpers import make
                def go(run_shards, plan, ranges, kernel):
                    return run_shards(plan, ranges, kernel=kernel, worker=make)
                """
            ),
        }
        # 'make' itself is module-level, so this is clean...
        assert codes(sources, select=["SHARD002"]) == []


class TestEngineRegistration:
    """The engine's pool takes its callables as ``kernel=``/``worker=``
    keywords, so SHARD001 keeps checking every real shard kernel."""

    def test_engine_kernels_registered(self):
        from repro_lint import LintConfig
        from repro_lint.project import Project

        root = Path(__file__).resolve().parents[2]
        sources = {
            path.relative_to(root).as_posix(): path.read_text()
            for path in sorted((root / "src").rglob("*.py"))
        }
        project = Project.build(sources, LintConfig(src_roots=("src", "tools")))
        assert {
            "repro.testbed.collection.collect_rows",
            "repro.core.reactive.probe_rows",
            "repro.engine.spill.collect_rows_spilled",
            "repro.engine.sharding._probe_task",
            "repro.engine.sharding._collect_task",
        } <= project.shard_kernels
