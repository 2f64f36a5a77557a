"""The call-graph layer and the cross-module rules built on it.

Covers, in order: graph construction (symbols, edge resolution
strategies, re-export aliases), traversals, determinism (equal symbol
tables and edges across repeated builds *and* shuffled discovery
orders), relative imports in :class:`ImportMap`, the stale-suppression
check (``SUPPRESS001``), and one positive and one negative case per
graph rule (DET001 / FORK001 / SHM001).
"""

import ast
import random
import textwrap
from pathlib import Path

import pytest

from repro.lint import FileContext, ImportMap, lint_paths
from repro.lint.engine import SUPPRESS_RULE_ID
from repro.lint.graph import CallGraph
from repro.lint.rules import resolve_relative_base

MINI_REPO = {
    "src/repro/mini/__init__.py": """
        from repro.mini.core import helper
        """,
    "src/repro/mini/core.py": """
        import numpy as np

        from repro.mini.util import leaf

        def helper():
            return leaf()

        def seeded(seed):
            return np.random.default_rng(seed)  # repro-lint: disable=RNG002
        """,
    "src/repro/mini/util.py": """
        import numpy as np

        def leaf():
            return np.random.default_rng(3).normal()  # repro-lint: disable=RNG002
        """,
    "src/repro/mini/model.py": """
        from dataclasses import dataclass

        @dataclass
        class Engine:
            def compute(self):
                return self.step()

            def step(self):
                return 1

        def drive(engine: Engine):
            return engine.compute()

        def build():
            e = Engine()
            return e.step()
        """,
}


def write_tree(root: Path, files) -> None:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def mini_repo(tmp_path):
    write_tree(tmp_path, MINI_REPO)
    return tmp_path


def parse_tree(repo: Path):
    return [FileContext.parse(p, repo) for p in sorted((repo / "src").rglob("*.py"))]


def mini_graph(repo: Path) -> CallGraph:
    return CallGraph.build(parse_tree(repo))


def graph_state(graph: CallGraph):
    return graph.functions, graph.classes, graph.edges


class TestGraphConstruction:
    def test_symbols_and_import_edges(self, mini_repo):
        graph = mini_graph(mini_repo)
        assert "repro.mini.core.helper" in graph.functions
        info = graph.functions["repro.mini.core.seeded"]
        assert info.params == ("seed",)
        assert info.relpath == "src/repro/mini/core.py"
        assert "repro.mini.util.leaf" in graph.successors("repro.mini.core.helper")
        assert "numpy.random.default_rng" in graph.successors(
            "repro.mini.util.leaf"
        )

    def test_reexport_alias_canonicalizes(self, mini_repo):
        graph = mini_graph(mini_repo)
        assert graph.canonical("repro.mini.helper") == "repro.mini.core.helper"

    def test_annotation_self_and_local_ctor_edges(self, mini_repo):
        graph = mini_graph(mini_repo)
        # Parameter annotation: drive(engine: Engine) → Engine.compute.
        assert "repro.mini.model.Engine.compute" in graph.successors(
            "repro.mini.model.drive"
        )
        # self-dispatch through the enclosing class.
        assert "repro.mini.model.Engine.step" in graph.successors(
            "repro.mini.model.Engine.compute"
        )
        # x = Ctor(...) then x.method().
        assert "repro.mini.model.Engine.step" in graph.successors(
            "repro.mini.model.build"
        )

    def test_call_line_is_recorded(self, mini_repo):
        graph = mini_graph(mini_repo)
        line = graph.call_line("repro.mini.core.helper", "repro.mini.util.leaf")
        assert isinstance(line, int) and line > 1


class TestTraversal:
    def test_forward_and_reverse_cones(self, mini_repo):
        graph = mini_graph(mini_repo)
        forward = graph.reachable_from(["repro.mini.core.helper"])
        assert {"repro.mini.util.leaf", "numpy.random.default_rng"} <= forward
        backward = graph.reachers_of(["numpy.random.default_rng"])
        assert {
            "repro.mini.core.helper",
            "repro.mini.core.seeded",
            "repro.mini.util.leaf",
        } <= backward
        assert "repro.mini.model.drive" not in backward

    def test_sample_path_is_shortest_witness(self, mini_repo):
        graph = mini_graph(mini_repo)
        path = graph.sample_path(
            "repro.mini.core.helper", {"numpy.random.default_rng"}
        )
        assert path == [
            "repro.mini.core.helper",
            "repro.mini.util.leaf",
            "numpy.random.default_rng",
        ]
        assert graph.sample_path("repro.mini.model.drive", {"absent"}) == []


class TestDeterminism:
    def test_json_is_byte_stable_across_builds(self, mini_repo):
        first = graph_state(mini_graph(mini_repo))
        second = graph_state(mini_graph(mini_repo))
        assert first == second

    def test_json_is_stable_under_shuffled_context_order(self, mini_repo):
        contexts = parse_tree(mini_repo)
        reference = graph_state(CallGraph.build(contexts))
        for seed in range(3):
            shuffled = list(contexts)
            random.Random(seed).shuffle(shuffled)
            assert graph_state(CallGraph.build(shuffled)) == reference

    def test_findings_stable_under_shuffled_path_order(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/a.py": """
                    import random

                    def one():
                        return random.random()
                    """,
                "src/repro/b.py": """
                    import time

                    def two():
                        return time.time()
                    """,
            },
        )
        paths = sorted((tmp_path / "src").rglob("*.py"))
        reference = lint_paths(paths, root=tmp_path)
        assert reference  # both files must actually produce findings
        for seed in range(3):
            shuffled = list(paths)
            random.Random(seed).shuffle(shuffled)
            assert lint_paths(shuffled, root=tmp_path) == reference


class TestRelativeImports:
    def test_resolve_relative_base(self):
        assert resolve_relative_base("repro.edge", 1, "routes") == (
            "repro.edge.routes"
        )
        assert resolve_relative_base("repro.edge", 1, None) == "repro.edge"
        assert resolve_relative_base("repro.edge", 2, "other") == "repro.other"
        assert resolve_relative_base("repro", 2, "x") is None
        assert resolve_relative_base("", 1, "x") is None

    def test_import_map_resolves_relative_aliases(self):
        tree = ast.parse(
            "from . import routes\n"
            "from .routes import bgp_routes\n"
            "from ..other import thing\n"
        )
        imports = ImportMap(tree, package="repro.edge")
        assert imports.aliases["routes"] == "repro.edge.routes"
        assert imports.aliases["bgp_routes"] == "repro.edge.routes.bgp_routes"
        assert imports.aliases["thing"] == "repro.other.thing"

    def test_relative_imports_skipped_without_package(self):
        tree = ast.parse("from . import routes\n")
        assert ImportMap(tree).aliases == {}

    def test_file_context_threads_package(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": "from . import sibling\n",
                "src/repro/pkg/mod.py": "from .sibling import f\n",
                "src/repro/pkg/sibling.py": "def f():\n    return 1\n",
            },
        )
        mod = FileContext.parse(tmp_path / "src/repro/pkg/mod.py", tmp_path)
        assert mod.imports.aliases["f"] == "repro.pkg.sibling.f"
        init = FileContext.parse(
            tmp_path / "src/repro/pkg/__init__.py", tmp_path
        )
        assert init.imports.aliases["sibling"] == "repro.pkg.sibling"

    def test_relative_import_participates_in_rules(self, tmp_path):
        # TIME001 must see through ``from .clock import now`` — the
        # ImportMap gap this PR closes.
        write_tree(
            tmp_path,
            {
                "src/repro/edgefabric/__init__.py": "",
                "src/repro/edgefabric/clock.py": """
                    import time

                    now = time.time
                    """,
                "src/repro/edgefabric/meas.py": """
                    from time import time

                    def stamp():
                        return time()
                    """,
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert any(
            f.rule == "TIME001" and f.path.endswith("meas.py") for f in findings
        )


def rules_of(findings):
    return {f.rule for f in findings}


class TestStaleSuppressions:
    def test_stale_waiver_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/x.py": """
                    def clean():
                        return 1  # repro-lint: disable=RNG001
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [f.rule for f in findings] == [SUPPRESS_RULE_ID]
        assert "disable=RNG001" in findings[0].message

    def test_active_waiver_does_not_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/x.py": """
                    import random

                    def jitter():
                        return random.random()  # repro-lint: disable=RNG001
                    """
            },
        )
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []

    def test_intentional_stale_waiver_is_suppressible(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/x.py": """
                    def clean():
                        return 1  # repro-lint: disable=RNG001,SUPPRESS001
                    """
            },
        )
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []

    def test_quoted_disable_in_docstring_is_not_a_waiver(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/x.py": '''
                    """Docs quoting ``# repro-lint: disable=RNG001``."""

                    def clean():
                        return 1
                    ''',
            },
        )
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


class TestSeedTaint:
    def test_laundered_seed_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/flow.py": """
                    from dataclasses import dataclass

                    import numpy as np

                    def draw_noise():
                        return np.random.default_rng(7).normal()  # repro-lint: disable=RNG002

                    @dataclass
                    class NoisePayload:
                        def run(self):
                            return draw_noise()
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 1
        assert "draw_noise" in det[0].message
        assert "numpy.random.default_rng" in det[0].message

    def test_seed_bearing_helper_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/flow.py": """
                    from dataclasses import dataclass

                    import numpy as np

                    def draw_noise(rng):
                        return rng.normal()

                    @dataclass
                    class NoisePayload:
                        seed: int

                        def run(self):
                            return draw_noise(np.random.default_rng(self.seed))
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert "DET001" not in rules_of(findings)


WORKER_LOCK_SNIPPET = """
    import threading
    from dataclasses import dataclass

    def guarded():
        with threading.Lock():
            return 1

    @dataclass
    class Payload:
        def run(self):
            return guarded()
    """


class TestWorkerPurity:
    def test_lock_in_worker_cone_fires(self, tmp_path):
        write_tree(tmp_path, {"src/repro/cdn/work.py": WORKER_LOCK_SNIPPET})
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        fork = [f for f in findings if f.rule == "FORK001"]
        assert len(fork) == 1
        assert "threading.Lock" in fork[0].message

    def test_global_mutation_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/work.py": """
                    from dataclasses import dataclass

                    _COUNT = 0

                    def bump():
                        global _COUNT
                        _COUNT += 1

                    @dataclass
                    class Payload:
                        def run(self):
                            bump()
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert any(
            f.rule == "FORK001" and "global" in f.message for f in findings
        )

    def test_runner_layer_is_exempt(self, tmp_path):
        write_tree(tmp_path, {"src/repro/runner/work.py": WORKER_LOCK_SNIPPET})
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert "FORK001" not in rules_of(findings)

    def test_unreachable_lock_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/work.py": """
                    import threading
                    from dataclasses import dataclass

                    def guarded():
                        with threading.Lock():
                            return 1

                    @dataclass
                    class Payload:
                        def run(self):
                            return 0
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert "FORK001" not in rules_of(findings)


class TestShmDiscipline:
    def lint(self, tmp_path, body):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/borrow.py": (
                    "import numpy as np\n"
                    "from repro.runner.shm import attach_shared\n\n"
                    + textwrap.dedent(body)
                )
            },
        )
        return lint_paths([tmp_path / "src"], root=tmp_path)

    def test_element_write_fires(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def clobber(spec):
                shared = attach_shared(spec)
                arr = shared["matrix"]
                arr[0] = 1.0
                return arr
            """,
        )
        assert "SHM001" in rules_of(findings)

    def test_writeable_flag_flip_fires(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def unlock(spec):
                arr = attach_shared(spec)["matrix"]
                arr.flags.writeable = True
                return arr
            """,
        )
        assert "SHM001" in rules_of(findings)

    def test_mutator_and_copyto_fire(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def smash(spec, update):
                borrowed = attach_shared(spec)
                for arr in borrowed.values():
                    arr.fill(0.0)
                np.copyto(borrowed["matrix"], update)
            """,
        )
        shm = [f for f in findings if f.rule == "SHM001"]
        assert len(shm) == 2

    def test_augassign_fires(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def shift(spec):
                arr = attach_shared(spec)["matrix"]
                arr += 1.0
            """,
        )
        assert "SHM001" in rules_of(findings)

    def test_specable_shared_param_is_tracked(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cdn/payload.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class Payload:
                        def run(self, shared):
                            shared["matrix"][0] = 1.0
                    """
            },
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert "SHM001" in rules_of(findings)

    def test_reads_and_private_copies_are_clean(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def consume(spec):
                arr = attach_shared(spec)["matrix"]
                private = arr.copy()
                private[0] = 1.0
                private.fill(2.0)
                return float(arr.sum()) + float(private.sum())
            """,
        )
        assert "SHM001" not in rules_of(findings)
