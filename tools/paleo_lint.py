#!/usr/bin/env python3
"""Repo-specific linter for PALEO house invariants.

Enforces the contracts the generic tools (clang-tidy, -Wthread-safety)
cannot express, across src/ (and where noted, the whole tree):

  raw-sync        Concurrent code uses the annotated wrappers in
                  common/mutex.h. Raw std::mutex / std::shared_mutex /
                  std::condition_variable members (and std lock guards)
                  are invisible to the Clang thread-safety analysis, so
                  they are forbidden outside common/mutex.h.
  guarded-by      Every Mutex / SharedMutex member is accompanied by at
                  least one GUARDED_BY(that_mutex) field in the same
                  file: a mutex that guards nothing is dead weight or an
                  undeclared invariant.
  naked-new       No naked new / delete: memory is owned through
                  std::make_unique / make_shared / containers.
  metric-names    Metric series registered on a MetricsRegistry are
                  paleo_*-prefixed (Prometheus namespace hygiene), each
                  family name maps to exactly one instrument kind, and
                  unit suffixes pin the kind (_total => Counter,
                  _ms => Histogram, _bytes => Gauge).
  span-balance    Every Trace::StartSpan call is either owned by a
                  ScopedSpan (RAII end on all exit paths) or its span id
                  is stored in a variable that has a matching EndSpan in
                  the same file.
  contract-docs   Public headers in src/paleo and src/service document
                  their thread-safety contract.
  fault-points    PALEO_FAULT_POINT site names are dotted kebab-case
                  ("subsystem.stage" segments of [a-z0-9-]) and each
                  name is registered at exactly one src/ site, so a
                  chaos spec armed by name targets one known line.
  exec-context    HARD BAN, tree-wide (src/, tests/, bench/,
                  examples/): the positional Execute / CountMatching
                  overloads were DELETED; every call passes one
                  ExecContext (engine/exec_context.h) as the final
                  argument. A call whose argument shape
                  matches the old positional wrappers (too few
                  arguments, or a trailing budget/cache argument where
                  the context belongs) is an error.
  service-table-ptr
                  The serving layer never holds a raw Table pointer:
                  sessions pin a shared_ptr<const TableSnapshot> from
                  the TableCatalog, so an in-flight run keeps its
                  version alive however far ingestion advances. A
                  `Table*` in src/service/ is a lifetime bug waiting
                  for the first live-table deployment.

Lexing and file walking are shared with tools/analyze (source.py): one
scanner produces comment-blanked, string-blanked, and comment-only
views that understand raw strings — R"(...)" bodies can no longer leak
into the code view, which the PR-4-era stripper here got wrong.

Exit 0 when clean; exit 1 with file:line findings otherwise. Pure
stdlib, no third-party deps; wired into ctest as the `lint` test and
into CI's analyze job.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from analyze.source import (  # noqa: E402
    ALL_CXX_DIRS, REPO, SourceFile, load_sources)

# The one place raw std synchronization types may appear: the annotated
# wrappers themselves.
RAW_SYNC_WHITELIST = {
    "src/common/mutex.h",
}

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|timed_mutex|recursive_mutex"
    r"|condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock)\b"
)

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:paleo::)?(?:Mutex|SharedMutex)\s+"
    r"([A-Za-z_]\w*)\s*(?:;|ACQUIRED_)"
)

NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `new T`, not `->New(`
DELETE_RE = re.compile(r"(?<![\w.])delete\b(?!\s*\()")

# Matched against the strings-kept view as ONE text, not per line:
# real registration calls wrap between the '(' and the name literal,
# which a per-line scan silently never matched.
FIND_OR_CREATE_RE = re.compile(
    r"FindOrCreate(Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\""
)

START_SPAN_RE = re.compile(r"\bStartSpan\s*\(")
SPAN_ASSIGN_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*(?:\w+(?:->|\.))?StartSpan\s*\("
)

CONTRACT_RE = re.compile(r"thread[- ]?saf", re.IGNORECASE)

FAULT_POINT_RE = re.compile(r'PALEO_FAULT_POINT\(\s*"([^"]*)"\s*\)')
# Dotted kebab-case with at least two segments: "subsystem.stage" or
# deeper, each segment [a-z0-9] runs joined by single dashes.
FAULT_NAME_RE = re.compile(
    r"^[a-z0-9]+(?:-[a-z0-9]+)*(?:\.[a-z0-9]+(?:-[a-z0-9]+)*)+$"
)


class Linter:
    def __init__(self) -> None:
        self.findings: list[str] = []

    def report(self, src: SourceFile, line: int, rule: str,
               msg: str) -> None:
        self.findings.append(f"{src.rel}:{line}: [{rule}] {msg}")

    # ---- rules ----

    def check_raw_sync(self, src: SourceFile) -> None:
        if src.rel in RAW_SYNC_WHITELIST:
            return
        for lineno, line in enumerate(src.code_lines, 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                self.report(
                    src, lineno, "raw-sync",
                    f"std::{m.group(1)} is invisible to the thread-safety "
                    "analysis; use paleo::Mutex / MutexLock / CondVar "
                    "(common/mutex.h)")

    def check_guarded_by(self, src: SourceFile) -> None:
        mutexes: dict[str, int] = {}
        for lineno, line in enumerate(src.code_lines, 1):
            m = MUTEX_MEMBER_RE.match(line)
            if m:
                mutexes[m.group(1)] = lineno
        for name, lineno in mutexes.items():
            if not re.search(
                    r"GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
                    src.code):
                self.report(
                    src, lineno, "guarded-by",
                    f"mutex member '{name}' has no GUARDED_BY({name}) "
                    "field; declare what it protects (or delete it)")

    def check_naked_new(self, src: SourceFile) -> None:
        for lineno, line in enumerate(src.code_lines, 1):
            # Preprocessor lines are not expressions (`#include <new>`).
            if line.lstrip().startswith("#"):
                continue
            # `= delete` / `= default` declare deleted/defaulted special
            # members; they are not memory management.
            line = re.sub(r"=\s*(?:delete|default)\b", "", line)
            if NEW_RE.search(line) or DELETE_RE.search(line):
                self.report(
                    src, lineno, "naked-new",
                    "naked new/delete; use std::make_unique / "
                    "make_shared or a container")

    # Prometheus suffix conventions: the unit/kind suffix of a family
    # name pins its instrument kind (see src/paleo/pipeline_metrics.h).
    SUFFIX_KINDS = {"_total": "Counter", "_ms": "Histogram",
                    "_bytes": "Gauge"}

    # Load-bearing series that dashboards and the bench harness key on:
    # each must stay registered somewhere in src/. Renaming or dropping
    # one silently zeroes every consumer, so removal must be deliberate
    # (update this list together with the naming-scheme doc in
    # src/paleo/pipeline_metrics.h).
    REQUIRED_SERIES = (
        "paleo_runs_total",
        "paleo_executor_queries_total",
        "paleo_executor_rows_scanned_total",
        "paleo_cache_hits_total",
        "paleo_cache_misses_total",
        "paleo_validations_refuted_early_total",
        "paleo_rows_saved_by_threshold_total",
        "paleo_degraded_runs_total",
    )

    def collect_metrics(self, src: SourceFile,
                        kinds: dict[str, tuple[str, str, int]]) -> None:
        # Whole-text match on the strings-kept view: registration calls
        # routinely break the line between FindOrCreate* and the name.
        for m in FIND_OR_CREATE_RE.finditer(src.strings):
            kind, name = m.group(1), m.group(2)
            lineno = src.strings.count("\n", 0, m.start()) + 1
            if not name.startswith("paleo_"):
                self.report(
                    src, lineno, "metric-names",
                    f"metric '{name}' must be paleo_*-prefixed")
            for suffix, want in self.SUFFIX_KINDS.items():
                if name.endswith(suffix) and kind != want:
                    self.report(
                        src, lineno, "metric-names",
                        f"metric '{name}' ends in {suffix} so it "
                        f"must be a {want}, not a {kind}")
            seen = kinds.get(name)
            if seen is None:
                kinds[name] = (kind, src.rel, lineno)
            elif seen[0] != kind:
                self.report(
                    src, lineno, "metric-names",
                    f"metric '{name}' registered as {kind} here but "
                    f"as {seen[0]} at {seen[1]}:{seen[2]}")

    def check_span_balance(self, src: SourceFile) -> None:
        if src.rel.startswith("src/obs/"):
            return  # the Trace implementation itself
        for lineno, line in enumerate(src.code_lines, 1):
            if not START_SPAN_RE.search(line):
                continue
            # RAII form: the ScopedSpan ctor calls StartSpan and ends the
            # span on every exit path.
            if "ScopedSpan" in line:
                continue
            m = SPAN_ASSIGN_RE.search(line)
            if m is None:
                self.report(
                    src, lineno, "span-balance",
                    "StartSpan result must be owned by an obs::ScopedSpan "
                    "or stored in a named span id")
                continue
            var = m.group(1)
            if not re.search(
                    r"EndSpan\(\s*" + re.escape(var) + r"\s*\)",
                    src.code):
                self.report(
                    src, lineno, "span-balance",
                    f"span id '{var}' from StartSpan has no matching "
                    f"EndSpan({var}) in this file; spans must end on all "
                    "exit paths")

    def collect_fault_points(self, src: SourceFile,
                             sites: dict[str, tuple[str, int]]) -> None:
        # Fault-point names live inside string literals, so this rule
        # scans the comment-stripped but strings-kept view.
        for lineno, line in enumerate(src.strings.splitlines(), 1):
            for m in FAULT_POINT_RE.finditer(line):
                name = m.group(1)
                if not FAULT_NAME_RE.match(name):
                    self.report(
                        src, lineno, "fault-points",
                        f"fault point '{name}' must be dotted kebab-case "
                        "with >= 2 segments, e.g. "
                        "'executor.execute.scan'")
                seen = sites.get(name)
                if seen is None:
                    sites[name] = (src.rel, lineno)
                else:
                    self.report(
                        src, lineno, "fault-points",
                        f"fault point '{name}' already registered at "
                        f"{seen[0]}:{seen[1]}; each "
                        "name maps to exactly one site")

    # Executor scan calls must pass an ExecContext. Member-call syntax
    # only (`.Execute(` / `->Execute(`) so declarations and the
    # Executor::... definitions themselves don't match. The ExecContext
    # overloads have a fixed arity (Execute: 3, CountMatching: 3) with
    # the context last; anything shorter — or an exact-arity call whose
    # final argument is clearly not a context — is the deleted
    # positional shape. This is a hard ban across src/, tests/, bench/,
    # and examples/.
    EXEC_CALL_RE = re.compile(r"(?:\.|->)\s*(Execute|CountMatching)\s*\(")
    EXEC_CTX_ARITY = {"Execute": 3, "CountMatching": 3}
    CTX_ARG_RE = re.compile(r"ExecContext|ctx|context", re.IGNORECASE)

    @staticmethod
    def split_top_level_args(code: str, open_idx: int) -> list[str] | None:
        """Splits the argument list of the call whose '(' is at
        `open_idx` on top-level commas; None if unbalanced (e.g. the
        call spans a stripped region)."""
        depth, start, args = 0, open_idx + 1, []
        for i in range(open_idx, len(code)):
            ch = code[i]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth == 0:
                    args.append(code[start:i])
                    stripped = [a.strip() for a in args]
                    return [] if stripped == [""] else stripped
            elif ch == "," and depth == 1:
                args.append(code[start:i])
                start = i + 1
        return None

    def check_exec_context(self, src: SourceFile) -> None:
        for m in self.EXEC_CALL_RE.finditer(src.code):
            name = m.group(1)
            args = self.split_top_level_args(src.code, m.end() - 1)
            if args is None:
                continue
            lineno = src.lineno_at(m.start())
            want = self.EXEC_CTX_ARITY[name]
            banned = (
                len(args) != want
                or not self.CTX_ARG_RE.search(args[-1]))
            if banned:
                self.report(
                    src, lineno, "exec-context",
                    f"{name} called with the DELETED positional overload "
                    "shape; pass one ExecContext "
                    "(engine/exec_context.h) as the final argument")

    # Raw Table pointers (members, parameters, locals) in the serving
    # layer bypass snapshot pinning; the service must only reach the
    # table through a pinned TableSnapshot.
    TABLE_PTR_RE = re.compile(r"\b(?:const\s+)?Table\s*\*")

    def check_service_table_ptr(self, src: SourceFile) -> None:
        if not src.rel.startswith("src/service/"):
            return
        for lineno, line in enumerate(src.code_lines, 1):
            if self.TABLE_PTR_RE.search(line):
                self.report(
                    src, lineno, "service-table-ptr",
                    "raw Table* in the serving layer; pin a "
                    "shared_ptr<const TableSnapshot> from the "
                    "TableCatalog instead (snapshot isolation)")

    def check_contract_docs(self, src: SourceFile) -> None:
        if not CONTRACT_RE.search(src.raw):
            self.report(
                src, 1, "contract-docs",
                "public header must document its thread-safety contract "
                "(e.g. 'Thread-safe: ...' or 'NOT thread-safe: ...')")

    # ---- driver ----

    def run(self) -> int:
        src_sources = load_sources(REPO, dirs=("src",))
        other_sources = load_sources(
            REPO, dirs=tuple(d for d in ALL_CXX_DIRS if d != "src"))
        metric_kinds: dict[str, tuple[str, str, int]] = {}
        fault_sites: dict[str, tuple[str, int]] = {}
        for src in src_sources:
            self.check_raw_sync(src)
            self.check_guarded_by(src)
            self.check_naked_new(src)
            self.collect_metrics(src, metric_kinds)
            self.check_exec_context(src)
            self.check_service_table_ptr(src)
            self.check_span_balance(src)
            self.collect_fault_points(src, fault_sites)

        # Required-series audit (see REQUIRED_SERIES): every
        # load-bearing family must still be registered somewhere.
        for name in self.REQUIRED_SERIES:
            if name not in metric_kinds:
                anchor = next(
                    (s for s in src_sources
                     if s.rel == "src/paleo/pipeline_metrics.cc"),
                    src_sources[0])
                self.report(
                    anchor, 1, "metric-names",
                    f"required series '{name}' is no longer registered "
                    "anywhere in src/; dashboards key on it (remove it "
                    "from REQUIRED_SERIES only with the consumers)")

        # Tree-wide hard ban: tests, benches, and examples must use the
        # ExecContext call shape too (the positional overloads no longer
        # exist; this catches the shape before the compiler's
        # no-matching-overload error does, with a better message).
        for src in other_sources:
            self.check_exec_context(src)

        for src in src_sources:
            if (src.rel.startswith(("src/paleo/", "src/service/"))
                    and src.rel.endswith(".h")):
                self.check_contract_docs(src)

        if self.findings:
            print(f"paleo_lint: {len(self.findings)} finding(s):\n")
            for f in self.findings:
                print("  " + f)
            print("\npaleo_lint: FAILED")
            return 1
        print(f"paleo_lint: OK — "
              f"{len(src_sources) + len(other_sources)} files clean.")
        return 0


if __name__ == "__main__":
    sys.exit(Linter().run())
