#!/usr/bin/env python3
"""Syntactic phase-discipline lint for the PGAS table API.

The runtime checker (HIPMER_CHECKED) catches contract violations that
actually execute; this lint catches the ones a reviewer can see in the
source without running anything. It is deliberately *syntactic* — per
function body, no data flow — so it stays fast enough for a pre-commit
hook and never needs a compilation database.

Rules (one finding line each, grep-able by the code in brackets):

  [flush-missing]      a function enqueues buffered stores
                       (`update_buffered`) but contains no `flush(` call.
                       Buffered rows that survive the function are invisible
                       to the owner until some other code flushes them.
  [drain-missing]      a function queues buffered lookups (`find_buffered`)
                       but never drains them (`process_lookups`).
  [cache-undropped]    a function enables a read cache
                       (`enable_read_cache`) and never drops it
                       (`disable_read_cache`). A cache that outlives its
                       read phase serves stale data after the next write
                       phase (the runtime rule stale-cache-across-write).
  [flush-unpublished]  a function flushes buffered stores but never reaches
                       a barrier-crossing collective afterwards: the rows
                       are at their owners, but no rank may read them until
                       a barrier publishes the phase change. The end of an
                       inline `team.run([..](..) { ... })` lambda counts as
                       one: run() returns only after every rank has left
                       the SPMD region.

False-positive escape hatch: a finding is suppressed by a trailing or
preceding comment `// lint-phases: allow(<code>)` naming the rule, e.g.

    map.update_buffered(rank, k, v);  // lint-phases: allow(flush-missing)

Functions split a protocol across helpers legitimately (a class may flush
in one method and barrier in another); the allow-comment documents that at
the call site, which is exactly the reviewable artifact we want.

When an entire file is a legitimate exception — a chaos/robustness test
that drives half-protocols on purpose, or a harness whose every function
would need the same allow — a file-scoped comment anywhere in the file

    // lint-phases: allow-file(<code>)

merges that rule into every function's allows. Prefer the per-line form;
allow-file is for files where per-line comments would outnumber the code.

Usage: lint_phases.py [--verbose] DIR_OR_FILE...
Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}

ALLOW_RE = re.compile(r"lint-phases:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"lint-phases:\s*allow-file\(([a-z-]+)\)")

# Calls that cross a barrier and therefore publish a flushed write phase.
BARRIER_RE = re.compile(
    r"\.(barrier|allreduce\w*|allgather\w*|broadcast|exscan\w*|alltoallv)\s*\("
)

# `flush(rank...)` — the PGAS drain always takes the caller's Rank first,
# which distinguishes it from iostream flush() and engine-internal flushes.
FLUSH_RE = re.compile(r"(?:\.|->)flush\s*\(\s*rank\b")
UPDATE_BUFFERED_RE = re.compile(r"(?:\.|->)update_buffered\s*\(")
FIND_BUFFERED_RE = re.compile(r"(?:\.|->)find_buffered\s*\(")
PROCESS_LOOKUPS_RE = re.compile(r"(?:\.|->)process_lookups\s*\(")
ENABLE_CACHE_RE = re.compile(r"(?:\.|->)enable_read_cache\s*\(")
DISABLE_CACHE_RE = re.compile(r"(?:\.|->)disable_read_cache\s*\(")
# The head of a namespace block: `namespace {`, `namespace a::b {`.
NAMESPACE_RE = re.compile(r"\bnamespace(\s+[\w:]+)?\s*$")
# The head of an inline SPMD lambda: `team.run([&](Rank& rank) {`.
RUN_LAMBDA_RE = re.compile(r"\.run\s*\(\s*\[[^\]]*\]\s*\([^)]*\)\s*$")

# A line that *defines* one of the API entry points (the PGAS layer itself)
# rather than calling it; files under src/pgas implement the API and are
# exempt from caller-side rules.
PGAS_DIR = "src/pgas"


def strip_comments_and_strings(line: str) -> str:
    """Remove // comments and string/char literal contents (keeps quotes)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Function:
    """A function body: its lines (1-based numbers) and per-rule allows."""

    def __init__(self, start_line: int):
        self.start_line = start_line
        self.lines: list[tuple[int, str]] = []  # (lineno, stripped code)
        self.allows: set[str] = set()
        self.run_ends: list[int] = []  # lines closing a team.run lambda

    def find_all(self, regex: re.Pattern) -> list[int]:
        return [no for no, code in self.lines if regex.search(code)]


def split_functions(text: str) -> list[Function]:
    """Carve the file into top-level-ish brace-balanced function bodies.

    Heuristic: every outermost brace block that is not a namespace is one
    body, ending when the brace depth returns to its opening level.
    Namespace blocks (named, nested or anonymous) are transparent: their
    members are the bodies, so a flush or barrier in one function never
    satisfies a rule for another. Class blocks stay whole, and nested
    lambdas stay inside their enclosing function — phase protocols
    routinely span the SPMD lambda passed to team.run(), and splitting
    there would hide the pairing.
    """
    functions: list[Function] = []
    current: Function | None = None
    depth = 0
    open_depth = 0
    namespaces: list[int] = []  # depth outside each open namespace block
    runs: list[int] = []  # depth outside each open team.run lambda
    in_block_comment = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        # Strip /* ... */ spans that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2 :]
        code = strip_comments_and_strings(line)

        allow = ALLOW_RE.search(raw)
        if current is not None and allow:
            current.allows.add(allow.group(1))

        if current is not None:
            current.lines.append((lineno, code))

        for col, ch in enumerate(code):
            if ch == "{":
                if current is None and NAMESPACE_RE.search(code[:col]):
                    namespaces.append(depth)
                elif current is None and depth >= 0:
                    current = Function(lineno)
                    current.lines.append((lineno, code))
                    if allow:
                        current.allows.add(allow.group(1))
                    open_depth = depth
                elif current is not None and RUN_LAMBDA_RE.search(code[:col]):
                    runs.append(depth)
                depth += 1
            elif ch == "}":
                depth -= 1
                if current is not None and runs and depth == runs[-1]:
                    runs.pop()
                    current.run_ends.append(lineno)
                if current is not None and depth == open_depth:
                    functions.append(current)
                    current = None
                    runs.clear()
                elif current is None and namespaces and depth == namespaces[-1]:
                    namespaces.pop()
    if current is not None:
        functions.append(current)
    return functions


def lint_file(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8", errors="replace")
    findings: list[str] = []
    in_pgas = PGAS_DIR in str(path).replace("\\", "/")
    # File-scoped suppressions apply to every function in the file.
    file_allows = set(ALLOW_FILE_RE.findall(text))

    for fn in split_functions(text):
        fn.allows |= file_allows
        if in_pgas:
            # The PGAS layer defines these entry points; pairing rules are
            # caller-side obligations.
            continue
        updates = fn.find_all(UPDATE_BUFFERED_RE)
        flushes = fn.find_all(FLUSH_RE)
        if updates and not flushes and "flush-missing" not in fn.allows:
            findings.append(
                f"{path}:{updates[0]}: [flush-missing] update_buffered with no "
                "flush() in the same function (rows invisible to owners until "
                "someone else flushes)"
            )
        finds = fn.find_all(FIND_BUFFERED_RE)
        drains = fn.find_all(PROCESS_LOOKUPS_RE)
        if finds and not drains and "drain-missing" not in fn.allows:
            findings.append(
                f"{path}:{finds[0]}: [drain-missing] find_buffered with no "
                "process_lookups() in the same function (queued lookups never "
                "answered)"
            )
        enables = fn.find_all(ENABLE_CACHE_RE)
        disables = fn.find_all(DISABLE_CACHE_RE)
        if enables and not disables and "cache-undropped" not in fn.allows:
            findings.append(
                f"{path}:{enables[0]}: [cache-undropped] enable_read_cache "
                "with no disable_read_cache in the same function (cache may "
                "outlive its read phase)"
            )
        if flushes and "flush-unpublished" not in fn.allows:
            last_flush = flushes[-1]
            barriers = fn.find_all(BARRIER_RE) + fn.run_ends
            if not any(b >= last_flush for b in barriers):
                findings.append(
                    f"{path}:{last_flush}: [flush-unpublished] flush() with no "
                    "barrier-crossing collective after it in this function "
                    "(flushed rows are unpublished until a barrier)"
                )
    return findings


def collect(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = Path(arg)
        if p.is_dir():
            files.extend(
                sorted(
                    f
                    for f in p.rglob("*")
                    if f.suffix in SUFFIXES and f.is_file()
                )
            )
        elif p.is_file():
            files.append(p)
        else:
            print(f"lint_phases: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str]) -> int:
    args = [a for a in argv if a != "--verbose"]
    verbose = len(args) != len(argv)
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    files = collect(args)
    findings: list[str] = []
    for f in files:
        findings.extend(lint_file(f))
    for line in findings:
        print(line)
    if verbose or findings:
        print(
            f"lint_phases: {len(files)} files, {len(findings)} finding(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
