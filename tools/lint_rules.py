"""Repo-specific lint rules the generic linters cannot express.

The invariants below are load-bearing enough to enforce mechanically:

1. **Shard encapsulation.**  ``PredicateShard`` objects and the
   copy-on-write machinery around them (``MaterializedView._shards`` /
   ``_writable_shard``) may only be touched inside
   ``src/repro/datalog/view.py``.  Everything else goes through the façade
   (``add`` / ``remove`` / ``replace`` / ``checkout``):
   a direct shard mutation bypasses the write-scope fence and the shard
   sanitizer, which is exactly the silent-corruption class the stream
   scheduler's publish step is designed against.  The storage classes a
   shard is made of (``_SharedTable``, ``_IndexedSlots``, ``_ArgSlot``, the
   owned parts, chunks and buckets, ...) are constructed only in
   ``src/repro/datalog/shard.py``: each one is stamped with the edit token
   of the shard that may write it in place, and a container built anywhere
   else would be shared without that stamp.

2. **Stream determinism.**  ``src/repro/stream/`` must not call the wall
   clock for logic (``time.time()`` / ``time.sleep()``) or use ``random``:
   transaction order is the stream's total order, timestamps are injected
   (see ``UpdateLog(clock=...)``), and scheduling must be reproducible.
   ``time.perf_counter()`` is allowed -- it only feeds duration counters.

3. **Monotonic trace timestamps.**  ``src/repro/obs/`` must never call
   ``time.time()``: a trace is a timeline, not a calendar, and the wall
   clock can step backwards mid-batch (NTP), producing spans that end
   before they start.  Everything in the package goes through the single
   ``repro.obs.trace.monotonic`` clock.

4. **Interning integrity.**  Term and constraint nodes are hash-consed:
   the *only* way to build one is the public constructor, whose
   ``__new__`` interns it.  Bypassing that (``object.__new__(Comparison)``
   and friends, or ``dataclasses.replace`` on a node) would mint an
   un-interned twin, silently breaking the pointer-identity equality the
   solver fast paths and view-entry keys rely on.  Only
   ``src/repro/constraints/`` itself (the interning build functions) may
   use ``object.__new__`` on node classes; ``dataclasses.replace`` on
   nodes is banned everywhere (the classes are no longer dataclasses).

5. **One join kernel, one engine config.**  The indexed delta join and
   its probe/interval setup (``iter_indexed_delta_joins``,
   ``make_view_probes``, ``make_interval_getter``) may be referenced only in
   ``src/repro/datalog/join.py``: ``T_P``/``W_P``, ``P_OUT`` and ``P_ADD``
   all go through :class:`DeltaJoinKernel`, and a fourth call site would be
   a fourth copy of the pool/probe setup.  The clause application is the
   kernel's too: StDel's parent rebuild calls ``apply_clause``, and no
   module under ``src/repro/maintenance/`` may reference
   ``eliminate_variables`` -- projecting after a clause application is what a
   second copy of the derivation pipeline would start with.  Likewise every
   engine flag is an annotated dataclass field in exactly one file under
   ``src/`` -- a second declaration is a second configuration that can
   disagree with the first.

6. **Update cost follows the change.**  A maintenance pass finds the
   entries a request can overlap through
   ``repro.datalog.join.overlap_candidates`` (an argument-index probe; the
   shard scan is its fallback) and reserves fresh names against the shards'
   name tables (``variable_name_tables``).  ``.entries_for(`` outside the
   datalog layer or a call of ``all_variable_names(`` anywhere in ``src/``
   would be a shard-sized walk back on the stream path.

7. **Sources are reached through the registry.**  A domain function runs
   only from ``DomainRegistry.evaluate_call``: ``.invoke(`` / ``.call(``
   anywhere outside ``src/repro/domains/`` would reach a source around the
   per-source call memo, its version gate and its counters -- a read that
   neither the change-notice protocol nor ``repro_domains_calls_total``
   knows about.

8. **Budgets: a new knob shows in the diff that adds it.**  The annotated
   fields of every class under ``src/`` whose name ends in ``Options``
   (found by the AST, so a new option class counts from the change that
   adds it), the distinct ``REPRO_*`` environment variables named under
   ``src/`` and the lines of Python under ``src/repro`` may not exceed the
   numbers committed below: each option doubles the configurations tests
   and benchmarks must cover, so a change that needs one more raises the
   number where a reviewer sees it.

9. **A support names one derivation (Lemma 1).**  An inserted fact's leaf
   names the fact it inserted: it is built by
   ``repro.maintenance.common.external_support`` and nowhere else, so a bare
   ``Support(EXTERNAL_CLAUSE_NUMBER)`` / ``Support(0)`` -- the one leaf every
   insertion used to share -- may be constructed nowhere under ``src/``, and
   ``EXTERNAL_CLAUSE_NUMBER`` is referenced only where leaves are made and
   told apart (``maintenance/common.py``, ``maintenance/insert.py`` and the
   package's re-export).  The name is the ``Add`` atom's text, not a digest
   of it: ``hashlib`` is imported only under ``src/repro/persist/`` (loading
   it costs a process that never checkpoints 3.7 MB of ``peak_rss_mb``).

10. **One place mirrors maintenance counters.**  No module under
    ``src/repro/maintenance/`` imports ``repro.obs``: a pass returns its
    ``MaintenanceStats`` and ``StreamScheduler._run_pass`` records them,
    once per pass, into the metrics registry.

11. **Numbers compare exactly.**  No ``float(`` under
    ``src/repro/constraints/`` or ``src/repro/analysis/``, nor in
    ``src/repro/domains/arithmetic.py`` or ``src/repro/datalog/view.py``:
    the solver, the boxes, ``bounds_of``, the solution search, the
    analyzer's clause profiles, the ``arith`` hooks and the argument
    index's intervals compare the raw ``int`` / ``float`` values, which
    Python does exactly at any size.  A conversion rounds ``2**53 + 1`` onto
    ``2**53`` (a solvable entry called unsolvable, a join answer lost to
    the index) and raises on ``10**400``.  The shard's ``_window_key``
    (which checks that its float key is exact) and the spatial domain's
    coordinates stay outside the rule.

12. **One atomic writer, one encoder.**  ``os.replace`` / ``os.rename``
    appear only in ``src/repro/persist/snapshot.py``, whose writer fsyncs
    the directory after the rename (a rename elsewhere could be lost by a
    crash after the WAL behind it was pruned).  Under
    ``src/repro/persist/`` only ``codec.py`` calls ``json.dumps``: every
    fragment a checkpoint splices into a payload is canonical bytes by
    construction.

13. **Every definition is reached by the program.**  A public (no leading
    ``_``) ``def`` or ``class`` under ``src/repro`` must be named somewhere
    else -- as a ``NAME`` token, or as a string literal that is exactly the
    name (``getattr(view, "all_variable_names")``) -- in ``src/`` (the
    package ``__init__.py`` import and ``__all__`` lines do not count: a
    re-export is not a use), ``benchmarks/``, ``examples/`` or ``tools/``.
    Tests do not count either: code that only a test reaches is code the
    system does not need, and it stays only on the ``REACHED_FROM_TESTS``
    allowlist, which says why (a test oracle, a driver that builds a test's
    input or changes its source, a paper artifact, or a name the benchmark
    uses).  The scan tokenizes, so a name in a docstring or a comment is not
    a use; it matches names, not owners, so a method shares its name's uses
    with every other definition of that name.

14. **One thread applies a batch.**  ``concurrent.futures`` and
    ``threading.Thread`` appear under ``src/repro`` only in
    ``src/repro/serve/``: the stream scheduler runs a batch's one pass on
    the thread that flushes it, and the serve layer's read pool and its one
    writer thread are the system's only threads.  A pool anywhere else is a
    second path through the scheduler whose interleavings the theorem
    checks do not cover.

15. **One writer.**  No ``ThreadPoolExecutor``, ``threading.Thread`` or
    ``threading.Condition`` under ``src/repro/stream/`` or
    ``src/repro/persist/``: a batch is drained, maintained, journaled and
    committed under one write lock on the caller's thread, so the stream
    and durability layers need no thread of their own and nothing to wait
    on but that lock.  Only the serve layer owns threads.

16. **A negation is scoped where it is built.**  Which variables of a
    ``not(...)`` are its own is decided by the code that creates them, with
    the atoms in view: ``scope_negations`` / ``scoped_negation``
    (``constraints/projection.py``) are called only by the parser (a
    clause's head and body, a constrained atom), the codec (the clauses
    and requests it decodes), the negation of an atom overlap against its
    target atom (narrowing in ``maintenance/common.py``, the rewrites in
    ``maintenance/declarative.py``, the coalescer in ``stream/coalesce.py``),
    the join kernel's negated premise (``datalog/join.py``) and the
    solver's subsumption test.  The solver, simplification and projection read
    every negation as already scoped: a pass over a bare constraint cannot
    see the atom arguments that make a variable outer.

Usage::

    python tools/lint_rules.py            # lint src/ (exit 1 on findings)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: (regex, allowed path suffixes -- or directory prefixes, ending in "/" --, message)
RULES: Tuple[Tuple[re.Pattern, Tuple[str, ...], str], ...] = (
    (
        re.compile(r"\._shards\b"),
        ("repro/datalog/view.py",),
        "direct MaterializedView._shards access outside the view facade",
    ),
    (
        re.compile(r"\._writable_shard\s*\("),
        ("repro/datalog/view.py",),
        "direct _writable_shard call outside the view facade",
    ),
    (
        re.compile(r"PredicateShard\s*\("),
        ("repro/datalog/view.py", "repro/datalog/shard.py"),
        "PredicateShard construction outside the view facade",
    ),
    (
        re.compile(
            r"\b_(?:SharedTable|IndexedSlots|ArgSlot|RangePostings|"
            r"SortedValueWindow|OwnedDict|OwnedList|owned_dict|owned_list)\s*\("
        ),
        ("repro/datalog/shard.py",),
        "shard storage class constructed outside repro/datalog/shard.py "
        "(containers are stamped with their shard's edit token there)",
    ),
    (
        re.compile(
            r"object\.__new__\s*\(\s*(?:Variable|Constant|Comparison|"
            r"DomainCall|Membership|NegatedConjunction|Conjunction|"
            r"TrueConstraint|FalseConstraint)\b"
        ),
        (
            "repro/constraints/terms.py",
            "repro/constraints/ast.py",
        ),
        "raw allocation of an interned term/constraint node outside the "
        "intern layer (construct through the class; __new__ interns)",
    ),
    (
        re.compile(
            r"(?:dataclasses\.replace|\breplace)\s*\(\s*[A-Za-z_][\w.]*"
            r"(?:term|constraint|atom_constraint|node)\b"
        ),
        (),
        "dataclasses.replace on a term/constraint node (nodes are interned, "
        "not dataclasses; build a new node through its constructor)",
    ),
    (
        re.compile(
            r"\b(?:iter_indexed_delta_joins|make_view_probes|make_interval_getter)\b"
        ),
        ("repro/datalog/join.py",),
        "indexed delta-join machinery referenced outside the join kernel "
        "(go through DeltaRound)",
    ),
    (
        re.compile(r"\ball_variable_names\s*\("),
        ("repro/datalog/view.py",),
        "all_variable_names() copies every shard's names per call (reserve "
        "fresh names through make_fresh_factory / variable_name_tables)",
    ),
    (
        re.compile(r"\.entries_for\s*\("),
        ("repro/datalog/view.py", "repro/datalog/join.py"),
        "shard scan in a maintenance pass (look the entries a request can "
        "overlap up with repro.datalog.join.overlap_candidates)",
    ),
    (
        re.compile(r"\bSupport\(\s*(?:EXTERNAL_CLAUSE_NUMBER|0)\s*(?:,\s*\(\s*\)\s*)?,?\s*\)"),
        (),
        "bare external leaf (an inserted fact's leaf names the fact: "
        "repro.maintenance.common.external_support)",
    ),
    (
        re.compile(r"\bEXTERNAL_CLAUSE_NUMBER\b"),
        (
            "repro/maintenance/common.py",
            "repro/maintenance/insert.py",
            "repro/maintenance/__init__.py",
        ),
        "EXTERNAL_CLAUSE_NUMBER outside the modules that make inserted leaves "
        "and tell them apart (a support identifies its entry; nothing else "
        "needs to know which leaves were inserted)",
    ),
    (
        re.compile(r"^\s*(?:import hashlib\b|from hashlib import)"),
        ("repro/persist/",),
        "hashlib outside the durability layer (+3.7 MB peak RSS in a process "
        "that has not loaded it; name things by their text)",
    ),
    (
        re.compile(r"\bos\.(?:replace|rename)\s*\("),
        ("repro/persist/snapshot.py",),
        "rename outside the atomic snapshot writer (it fsyncs the directory "
        "that makes a rename durable)",
    ),
    (
        re.compile(
            r"\bconcurrent\.futures\b|^\s*from\s+concurrent\s+import\b|"
            r"\bthreading\.Thread\b|^\s*from\s+threading\s+import\b.*\bThread\b"
        ),
        ("repro/serve/",),
        "thread or thread pool outside the serve layer (a batch's one pass "
        "runs on the thread that flushes it)",
    ),
    (
        re.compile(r"(?<!def )\bscope(?:_negations|d_negation)\s*\("),
        (
            "repro/constraints/projection.py",
            "repro/datalog/parser.py",
            "repro/persist/codec.py",
            "repro/maintenance/common.py",
            "repro/maintenance/declarative.py",
            "repro/stream/coalesce.py",
            "repro/datalog/join.py",
            "repro/constraints/solver.py",
        ),
        "negation scoped outside a construction site (scope a not(...) where "
        "it is built, against the atoms that name its outer variables)",
    ),
    (
        re.compile(r"\.(?:invoke|call)\s*\("),
        ("repro/domains/",),
        "domain function called around DomainRegistry.evaluate_call (the "
        "call memo, its version gate and the per-domain counters live there)",
    ),
)

#: Engine flags: each must be declared (as an annotated dataclass field) in
#: exactly one file under ``src/``.
ENGINE_FLAGS: Tuple[str, ...] = (
    "hash_join_index",
    "range_postings",
    "range_eligible",
    "delta_rederivation",
    "segment_batches",
)

#: The budgets (rule 8).  Raise one only in the change that needs it.
MAX_OPTION_FIELDS = 15
MAX_ENV_VARIABLES = 4
MAX_SOURCE_LINES = 20_480

#: Rule 13's reasons for keeping a definition that only tests reach.
ORACLE = "test oracle: a test checks other code against it"
DRIVER = "driver: builds a test's input or changes its source"
PAPER = "paper artifact"
BENCHMARK = "named by the benchmark"

#: Rule 13's allowlist: public definitions under ``src/repro`` that nothing
#: but tests names, each with the reason it stays.
REACHED_FROM_TESTS: Dict[str, str] = {
    "is_duplicate_free": ORACLE,
    "parse_constraint": DRIVER,
    "child_support_snapshot": ORACLE,
    "argument_index_snapshot": ORACLE,
    "range_posting_snapshot": ORACLE,
    "same_instances": ORACLE,
    "built_postings": ORACLE,
    "built_windows": ORACLE,
    "counter_value": ORACLE,
    "is_leaf": ORACLE,
    "map_clauses": ORACLE,
    "query_lease": ORACLE,
    "recompute_after_insertion": ORACLE,
    "insert_atom": ORACLE,
    "add_address": DRIVER,
    "remove_address": DRIVER,
    "remove_photo": DRIVER,
    "unregister": DRIVER,
    "on_change": DRIVER,
    "delete_row": DRIVER,
    "update_where": DRIVER,
    "set_fault_injector": DRIVER,
    "make_chain_program": DRIVER,
    "make_path_graph_edges": DRIVER,
    "make_cycle_graph_edges": DRIVER,
    "make_interval_program": DRIVER,
    "stream_batches": DRIVER,
    "make_term": DRIVER,
    "make_atom": DRIVER,
    "ground_atom": DRIVER,
    "rule": DRIVER,
    "not_equals": DRIVER,
    "with_relational_source": DRIVER,
    "step": PAPER,
    "refresh": PAPER,
    "CountingMaintenance": PAPER,
    "all_variable_names": BENCHMARK,
}

#: Where a use counts for rule 13 (``tools/lint_rules.py`` itself excepted).
REACHING_DIRECTORIES: Tuple[str, ...] = ("src", "benchmarks", "examples", "tools")

#: Rules scoped to the observability package only.
OBS_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"\btime\.time\s*\("),
        "time.time() in the obs package (spans are monotonic-only; use "
        "repro.obs.trace.monotonic)",
    ),
)

#: Rules scoped to the maintenance algorithms only.
MAINTENANCE_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"\beliminate_variables\b"),
        "projection in a maintenance pass (a clause application, projection "
        "included, is DeltaJoinKernel.apply_clause in repro/datalog/join.py)",
    ),
    (
        re.compile(r"^\s*(?:from|import)\s+repro\.obs\b"),
        "observability in a maintenance pass (the algorithms know no "
        "registry; StreamScheduler._run_pass mirrors each pass's counters)",
    ),
)

#: Rules scoped to the constraint layer, the analyzer, the arith hooks and
#: the argument index (rule 11).
CONSTRAINTS_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"\bfloat\s*\("),
        "float() in the constraint layer, the analyzer, the arith hooks or the argument index "
        "(compare the raw int / float values: "
        "a conversion rounds big ints and overflows beyond float range)",
    ),
)

#: Rules scoped to the durability layer only, ``codec.py`` exempt.
PERSIST_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"\bjson\.dumps\s*\("),
        "json.dumps in the durability layer outside codec.py (a payload is "
        "spliced from fragments; each must be codec.canonical_bytes)",
    ),
)

#: Rules scoped to the stream and durability layers (rule 15).
ONE_WRITER_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(
            r"\b(?:ThreadPoolExecutor|threading\.Thread|threading\.Condition)\b|"
            r"^\s*from\s+threading\s+import\b.*\b(?:Thread|Condition)\b"
        ),
        "a thread, pool or condition in the stream or durability layer (one "
        "writer: flush runs a batch under one lock on the caller's thread; "
        "only the serve layer owns threads)",
    ),
)

#: Rules scoped to the stream subsystem only.
STREAM_RULES: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"^\s*(import random\b|from random import)"),
        "random in the stream layer (scheduling must be deterministic)",
    ),
    (
        re.compile(r"\btime\.time\s*\("),
        "naked time.time() in the stream layer (inject a clock instead)",
    ),
    (
        re.compile(r"\btime\.sleep\s*\("),
        "time.sleep() in the stream layer (no wall-clock scheduling)",
    ),
)


def iter_findings(root: Path) -> Iterator[str]:
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        for line_number, line in enumerate(text.splitlines(), start=1):
            for pattern, allowed, message in RULES:
                if any(
                    relative.startswith(path) if path.endswith("/") else relative.endswith(path)
                    for path in allowed
                ):
                    continue
                if pattern.search(line):
                    yield f"{root.name}/{relative}:{line_number}: {message}"
            for prefix, scoped, exempt in (
                ("repro/stream/", STREAM_RULES, ""),
                ("repro/stream/", ONE_WRITER_RULES, ""),
                ("repro/persist/", ONE_WRITER_RULES, ""),
                ("repro/obs/", OBS_RULES, ""),
                ("repro/maintenance/", MAINTENANCE_RULES, ""),
                ("repro/constraints/", CONSTRAINTS_RULES, ""),
                ("repro/analysis/", CONSTRAINTS_RULES, ""),
                ("repro/domains/arithmetic.py", CONSTRAINTS_RULES, ""),
                ("repro/datalog/view.py", CONSTRAINTS_RULES, ""),
                ("repro/persist/", PERSIST_RULES, "repro/persist/codec.py"),
            ):
                if relative.startswith(prefix) and relative != exempt:
                    for pattern, message in scoped:
                        if pattern.search(line):
                            yield f"{root.name}/{relative}:{line_number}: {message}"


def iter_flag_findings(root: Path) -> Iterator[str]:
    """Engine flags declared as a dataclass field in other than one file."""
    texts = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*.py"))
    }
    for flag in ENGINE_FLAGS:
        # A field declaration: class-body indentation, ``name: type [= ...]``
        # (function parameters are indented deeper or end with a comma).
        declaration = re.compile(rf"^    {flag}: .*[^,\s]$", re.MULTILINE)
        files = [name for name, text in texts.items() if declaration.search(text)]
        if len(files) != 1:
            where = ", ".join(files) or "nowhere"
            yield (
                f"engine flag {flag!r} must be declared as a dataclass field "
                f"in exactly one file under {root.name}/ (found in: {where})"
            )


def iter_budget_findings(root: Path) -> Iterator[str]:
    """Option fields, environment variables and source lines over budget."""
    fields: List[str] = []
    variables = set()
    lines = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Options"):
                fields.extend(
                    f"{node.name}.{statement.target.id}"
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
            ):
                variables.add(node.value)
    for what, count, budget, listing in (
        ("option-class fields", len(fields), MAX_OPTION_FIELDS, fields),
        ("REPRO_* environment variables", len(variables), MAX_ENV_VARIABLES, sorted(variables)),
        (f"lines of Python under {root.name}/", lines, MAX_SOURCE_LINES, ()),
    ):
        if count > budget:
            yield (
                f"{count} {what}, budget {budget} -- remove one, or raise the "
                f"budget in tools/lint_rules.py in the change that needs it"
                + (f" ({', '.join(listing)})" if listing else "")
            )


def _export_lines(tree: ast.Module) -> Set[int]:
    """The lines of a package ``__init__``'s imports and ``__all__``."""
    lines: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _names_used(text: str, skipped: Set[int]) -> Iterable[str]:
    """Every name *text* uses: ``NAME`` tokens that are not a ``def`` /
    ``class`` name, string literals that are a name, and the names inside
    an f-string's fields (one ``STRING`` token before Python 3.12)."""
    previous = ""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.start[0] in skipped:
            continue
        if token.type == tokenize.NAME:
            if previous not in ("def", "class"):
                yield token.string
        elif token.type == tokenize.STRING:
            node = ast.parse(token.string, mode="eval").body
            if isinstance(node, ast.Constant):
                if isinstance(node.value, str) and node.value.isidentifier():
                    yield node.value
            else:
                for part in ast.walk(node):
                    if isinstance(part, ast.Name):
                        yield part.id
                    elif isinstance(part, ast.Attribute):
                        yield part.attr
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = token.string


def iter_reachability_findings(repo: Path) -> Iterator[str]:
    """Public definitions under ``src/repro`` that only tests name."""
    used: Counter = Counter()
    for directory in REACHING_DIRECTORIES:
        for path in sorted((repo / directory).rglob("*.py")):
            if path == repo / "tools" / "lint_rules.py":
                continue
            text = path.read_text(encoding="utf-8")
            skipped = _export_lines(ast.parse(text)) if path.name == "__init__.py" else set()
            used.update(_names_used(text, skipped))
    defined: Set[str] = set()
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(repo).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name.startswith("_") or used[node.name]:
                continue
            if node.name not in REACHED_FROM_TESTS:
                yield (
                    f"{relative}:{node.lineno}: {node.name} is named nowhere outside "
                    "tests/ (delete it, or add it to REACHED_FROM_TESTS with its reason)"
                )
    for name in sorted(set(REACHED_FROM_TESTS) - defined):
        yield f"REACHED_FROM_TESTS names {name!r}, which src/repro no longer defines"


def main() -> int:
    findings: List[str] = (
        list(iter_findings(SRC))
        + list(iter_flag_findings(SRC))
        + list(iter_budget_findings(SRC))
        + list(iter_reachability_findings(REPO_ROOT))
    )
    if findings:
        print(f"lint_rules: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print("lint_rules: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
