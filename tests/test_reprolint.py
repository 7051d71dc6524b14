"""reprolint: every rule fires on a seeded violation and the tree is clean."""

import os
import subprocess
import sys
import textwrap

import pytest

from tools.reprolint.config import LintConfig, load_config
from tools.reprolint.contracts import check_contracts
from tools.reprolint.engine import lint_source

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC_PATH = os.path.join("src", "repro", "storage", "example.py")


def lint(code, path=SRC_PATH, config=None):
    code = textwrap.dedent(code)
    config = config or LintConfig()
    return lint_source(code, path=path, config=config, relpath=path.replace(os.sep, "/"))


def rules_of(violations):
    return [v.rule for v in violations]


class TestLockDiscipline:
    GUARDED = """
    import threading

    class Pool:
        _GUARDED_BY = {"_cache": "_lock", "_bytes": "_lock"}

        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}
            self._bytes = 0
    """

    def test_unlocked_assignment_flagged(self):
        violations = lint(self.GUARDED + """
        def clear(self):
            self._cache = {}
        """)
        assert rules_of(violations) == ["lock-discipline"]
        assert "_cache" in violations[0].message

    def test_unlocked_mutator_call_flagged(self):
        violations = lint(self.GUARDED + """
        def drop(self, key):
            self._cache.pop(key)
        """)
        assert rules_of(violations) == ["lock-discipline"]

    def test_unlocked_augassign_and_subscript_flagged(self):
        violations = lint(self.GUARDED + """
        def bump(self, key):
            self._bytes += 1
            self._cache[key] = 1
        """)
        assert rules_of(violations) == ["lock-discipline", "lock-discipline"]

    def test_with_lock_is_clean(self):
        violations = lint(self.GUARDED + """
        def clear(self):
            with self._lock:
                self._cache = {}
                self._cache.update({})
                del self._cache
        """)
        assert violations == []

    def test_wrong_lock_flagged(self):
        violations = lint(self.GUARDED + """
        def clear(self):
            with self._other_lock:
                self._cache = {}
        """)
        assert rules_of(violations) == ["lock-discipline"]

    def test_locked_suffix_methods_exempt(self):
        violations = lint(self.GUARDED + """
        def _evict_locked(self):
            self._cache = {}
        """)
        assert violations == []

    def test_init_exempt(self):
        # __init__ in the fixture itself assigns guarded fields unlocked.
        assert lint(self.GUARDED) == []

    def test_nested_function_does_not_inherit_lock(self):
        # A closure may run after the with-block exits.
        violations = lint(self.GUARDED + """
        def schedule(self, executor):
            with self._lock:
                def later():
                    self._cache = {}
                executor.submit(later)
        """)
        assert rules_of(violations) == ["lock-discipline"]

    def test_config_guarded_fields(self):
        config = LintConfig(guarded_fields={"Counter.total": "_lock"})
        violations = lint(
            """
            class Counter:
                def bump(self):
                    self.total += 1
            """,
            config=config,
        )
        assert rules_of(violations) == ["lock-discipline"]

    def test_extra_mutators_from_config(self):
        config = LintConfig(guarded_fields={"M._memtable": "_lock"})
        config.mutator_methods |= {"seal"}
        violations = lint(
            """
            class M:
                def flush(self):
                    self._memtable.seal()
            """,
            config=config,
        )
        assert rules_of(violations) == ["lock-discipline"]


class TestGlobalRng:
    def test_np_random_flagged_in_src(self):
        violations = lint("""
        import numpy as np
        x = np.random.rand(10)
        """)
        assert rules_of(violations) == ["global-rng"]

    def test_default_rng_allowed(self):
        violations = lint("""
        import numpy as np
        rng = np.random.default_rng(7)
        x = rng.random(10)
        """)
        assert violations == []

    def test_outside_src_not_flagged(self):
        violations = lint(
            """
            import numpy as np
            x = np.random.rand(10)
            """,
            path=os.path.join("tests", "example.py"),
        )
        assert violations == []

    def test_stdlib_random_module_flagged(self):
        violations = lint("""
        import random
        x = random.randint(0, 5)
        """)
        assert rules_of(violations) == ["global-rng"]

    def test_seeded_random_instance_allowed(self):
        violations = lint("""
        import random
        rng = random.Random(3)
        x = rng.randint(0, 5)
        """)
        assert violations == []

    def test_from_import_flagged(self):
        violations = lint("""
        from random import choice
        from numpy.random import rand
        a = choice([1, 2])
        b = rand(3)
        """)
        assert sorted(rules_of(violations)) == ["global-rng", "global-rng"]

    def test_docstring_quickstart_flagged(self):
        violations = lint('''
        """Example.

        Usage::

            data = np.random.rand(100, 8)
        """
        ''')
        assert rules_of(violations) == ["global-rng"]
        assert "docstring" in violations[0].message


class TestHygiene:
    def test_mutable_default(self):
        violations = lint("""
        def f(x, acc=[]):
            return acc
        """)
        assert rules_of(violations) == ["mutable-default"]

    def test_bare_except(self):
        violations = lint("""
        def f():
            try:
                return 1
            except:
                return 2
        """)
        assert rules_of(violations) == ["bare-except"]

    def test_typed_except_allowed(self):
        violations = lint("""
        def f():
            try:
                return 1
            except ValueError:
                return 2
        """)
        assert violations == []

    def test_float_eq_on_score(self):
        violations = lint("""
        def f(score):
            return score == 1.0
        """)
        assert rules_of(violations) == ["float-eq"]

    def test_float_eq_two_scoreish_names(self):
        violations = lint("""
        def f(best_dist, worst_dist):
            return best_dist != worst_dist
        """)
        assert rules_of(violations) == ["float-eq"]

    def test_int_comparison_not_flagged(self):
        violations = lint("""
        def f(count, score):
            return count == 0 and score == 0
        """)
        assert violations == []


class TestSpanContext:
    def test_stage_never_entered_flagged(self):
        violations = lint("""
        from repro.obs import profile as p
        from repro.obs.profile import measurement_stage, profile_stage

        def f():
            profile_stage("flush")
            p.profile_stage("merge")
            return measurement_stage("exec")
        """)
        assert rules_of(violations) == ["span-context"] * 3

    def test_entered_stages_and_node_stage_allowed(self):
        violations = lint("""
        from repro.obs.profile import current_node, profile_stage

        def f():
            with profile_stage("flush"):
                pass
            stage = profile_stage("merge")
            with stage:
                pass
            return current_node().stage("child")
        """)
        assert violations == []


class TestSuppression:
    def test_line_suppression(self):
        violations = lint("""
        import numpy as np
        x = np.random.rand(10)  # reprolint: disable=global-rng
        """)
        assert violations == []

    def test_line_suppression_wrong_rule_keeps_violation(self):
        violations = lint("""
        import numpy as np
        x = np.random.rand(10)  # reprolint: disable=float-eq
        """)
        assert rules_of(violations) == ["global-rng"]

    def test_disable_all(self):
        violations = lint("""
        def f(acc=[]):  # reprolint: disable=all
            return acc
        """)
        assert violations == []

    def test_file_level_suppression(self):
        violations = lint("""
        # reprolint: disable-file=mutable-default
        def f(acc=[]):
            return acc

        def g(acc={}):
            return acc
        """)
        assert violations == []


class TestContracts:
    def test_repo_registries_are_clean(self):
        config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
        config.src_root = os.path.join(REPO_ROOT, "src")
        assert check_contracts(config) == []

    def test_broken_index_is_flagged(self):
        from repro.index import registry
        from repro.index.flat import FlatIndex

        class BrokenIndex(FlatIndex):
            index_type = "BROKEN_CONTRACT_TEST"

            # wrong leading params + no **params + required extra arg
            def _search(self, q, k, budget):  # pragma: no cover - never run
                raise NotImplementedError

            def search(self, queries, k, budget):  # pragma: no cover
                raise NotImplementedError

        registry.register_index(BrokenIndex)
        try:
            config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
            config.src_root = os.path.join(REPO_ROOT, "src")
            violations = [
                v for v in check_contracts(config) if "BROKEN_CONTRACT_TEST" in v.message
            ]
            messages = " | ".join(v.message for v in violations)
            assert "_search must start with (queries, k)" in messages
            assert "**params" in messages
            assert "adds required parameter 'budget'" in messages
        finally:
            registry._REGISTRY.pop("BROKEN_CONTRACT_TEST", None)

    def test_broken_metric_is_flagged(self):
        from repro.metrics import registry
        from repro.metrics.base import Metric

        class BrokenMetric(Metric):
            name = "broken_contract_test"
            higher_is_better = True  # inconsistent with worst_value below

            def pairwise(self, queries, data):  # pragma: no cover
                raise NotImplementedError

            def worst_value(self):
                return float("inf")  # a similarity metric's worst is -inf

        registry.register_metric(BrokenMetric())
        try:
            config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
            config.src_root = os.path.join(REPO_ROOT, "src")
            violations = [
                v for v in check_contracts(config)
                if "broken_contract_test" in v.message
            ]
            assert violations, "inconsistent worst_value not caught"
        finally:
            registry._REGISTRY.pop("broken_contract_test", None)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_shipped_tree_is_clean(self):
        proc = self._run("src", "tests")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_seeded_violation_exits_nonzero(self, tmp_path):
        bad = tmp_path / "seeded.py"
        bad.write_text(
            "def f(acc=[]):\n"
            "    try:\n"
            "        return acc\n"
            "    except:\n"
            "        pass\n"
        )
        proc = self._run("--no-contracts", str(bad))
        assert proc.returncode == 1
        assert "mutable-default" in proc.stdout
        assert "bare-except" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        listed = set(proc.stdout.split())
        assert {"lock-discipline", "global-rng", "contract"} <= listed
