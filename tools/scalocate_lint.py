#!/usr/bin/env python3
"""scalocate custom lint: repo contracts no generic analyzer knows about.

Six rules, each enforcing an invariant a previous PR established and that
clang-tidy / compiler warnings cannot see:

  memory-order    std::memory_order uses are confined to an allowlisted set
                  of audited lock-free files, so relaxed-atomic code cannot
                  spread through the tree unreviewed.
  error-taxonomy  every class deriving from scalocate::Error either carries
                  the Transient mixin or is named in the terminal-errors
                  list in src/common/error.hpp, so api::with_retry can
                  never silently misclassify a new exception type.
  metric-drift    every obs metric-name string literal registered in src/
                  appears in the README "Observability" table, and every
                  instrument the table documents is registered somewhere in
                  src/ (bidirectional; dynamically-built names are declared
                  in DYNAMIC_METRIC_LEAVES with a justification).
  header-using    headers contain no `using namespace` at namespace scope
                  (function-local is fine); a header-level using-directive
                  injects names into every includer.
  isa-comdat      no two kernel TUs built for different ISAs (the baseline
                  src/nn/kernels/gemm.cpp and each gemm_avx*.cpp) emit the
                  same external-linkage template instantiation, directly or
                  through the templates it instantiates: the linker keeps
                  one COMDAT copy of each, and an AVX-512-encoded copy kept
                  for an AVX2-only CPU is a SIGILL.
  serving-executor
                  in src/runtime/ and src/api/, every intra-op budget set
                  explicitly (IntraOpGuard, set_intra_op_threads) is the
                  literal 1: the serving plane spreads work as tasks on the
                  engine's own pool, not by widening a budget. Code that
                  sets no budget (and so runs at the process default) is
                  not checked.

Usage:  python3 tools/scalocate_lint.py [--root DIR] [--rule NAME]
Exit status is non-zero iff any finding is reported. Run from anywhere;
--root defaults to the repository root (the parent of this file's dir).

tests/test_lint.py proves each rule both fires and passes on fixture
snippets; ctest runs that self-test plus this script against the tree.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule: memory-order
# ---------------------------------------------------------------------------

# Files (path prefixes relative to the repo root, '/'-separated) where
# std::memory_order is allowed, each with the audit rationale. Extending
# lock-free code into a new file means auditing it and adding it here with
# a justification — that review step is the point of the rule.
MEMORY_ORDER_ALLOWLIST = {
    "src/obs/": "lock-free telemetry hot path is the subsystem's contract: "
                "relaxed counters/gauges, per-thread histogram shards "
                "(audited in the obs PR)",
    "src/runtime/fault_injector.": "site arming flags are read on every "
                                   "hot-path probe; relaxed reads, "
                                   "release publication",
    "src/runtime/thread_pool.": "pool stop/quiesce flags polled by workers",
    "src/runtime/spsc_ring.hpp": "wait-free SPSC ingest ring: "
                                 "acquire/release head/tail hand-off "
                                 "(audited in the fleet-batching PR, raced "
                                 "under TSan in CI)",
    "src/runtime/window_batcher.": "cross-session batcher: eof/failed/stat "
                                   "flags exchanged between session "
                                   "producers and the scheduler thread "
                                   "(audited in the fleet-batching PR, "
                                   "raced under TSan in CI)",
    "src/runtime/locator_service.cpp": "job cancel/deadline flags and "
                                       "queue-depth watermark polled by "
                                       "workers without the queue mutex",
    "src/nn/kernels/parallel.cpp": "intra-op work distribution: chunk "
                                   "counter fetch_add and completion "
                                   "latch (audited in the parallel-GEMM "
                                   "PR, raced under TSan in CI)",
}


def _strip_line_comments(line: str) -> str:
    return line.split("//", 1)[0]


def _cxx_files(root: Path) -> list[Path]:
    src = root / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*") if p.suffix in (".cpp", ".hpp"))


def check_memory_order(root: Path) -> list[str]:
    findings = []
    for path in _cxx_files(root):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(prefix) for prefix in MEMORY_ORDER_ALLOWLIST):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "memory_order" in _strip_line_comments(line):
                findings.append(
                    f"{rel}:{lineno}: [memory-order] std::memory_order "
                    f"outside the audited lock-free allowlist; audit the "
                    f"file and add it to MEMORY_ORDER_ALLOWLIST in "
                    f"tools/scalocate_lint.py with a justification")
    return findings


# ---------------------------------------------------------------------------
# Rule: error-taxonomy
# ---------------------------------------------------------------------------

_TERMINAL_BEGIN = "scalocate-lint: terminal-errors"
_TERMINAL_END = "scalocate-lint: end-terminal-errors"

# `class X final : bases {` / `struct X : bases {` — possibly spanning lines.
_CLASS_DECL = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?:\s*([^{;]+)\{")


def _parse_terminal_list(root: Path) -> tuple[set[str], str | None]:
    """Returns (terminal class names, error-or-None)."""
    hpp = root / "src" / "common" / "error.hpp"
    if not hpp.is_file():
        return set(), f"{hpp.relative_to(root).as_posix()}: missing"
    text = hpp.read_text()
    begin = text.find(_TERMINAL_BEGIN)
    end = text.find(_TERMINAL_END)
    if begin < 0 or end < begin:
        return set(), (f"src/common/error.hpp: no '{_TERMINAL_BEGIN}' ... "
                       f"'{_TERMINAL_END}' block to parse")
    names = set(re.findall(r"[A-Za-z_]\w*",
                           text[begin + len(_TERMINAL_BEGIN):end]))
    return names, None


def _class_hierarchy(root: Path) -> dict[str, set[str]]:
    """Maps class name -> direct base names (namespace-qualifiers stripped),
    across all C++ files under src/."""
    bases_of: dict[str, set[str]] = {}
    for path in _cxx_files(root):
        # Strip line comments so commented-out declarations don't parse.
        text = "\n".join(_strip_line_comments(l)
                         for l in path.read_text().splitlines())
        for m in _CLASS_DECL.finditer(text):
            name = m.group(2)
            bases = set()
            for piece in m.group(3).split(","):
                piece = re.sub(r"\b(public|protected|private|virtual)\b",
                               "", piece).strip()
                if piece:
                    bases.add(piece.split("<")[0].split("::")[-1].strip())
            bases_of.setdefault(name, set()).update(bases)
    return bases_of


def _derives_from(name: str, target: str,
                  bases_of: dict[str, set[str]]) -> bool:
    seen, stack = set(), [name]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for base in bases_of.get(cur, ()):
            if base == target:
                return True
            stack.append(base)
    return False


def check_error_taxonomy(root: Path) -> list[str]:
    terminal, err = _parse_terminal_list(root)
    if err:
        return [f"{err} [error-taxonomy]"]
    bases_of = _class_hierarchy(root)
    findings = []
    error_classes = sorted(
        n for n in bases_of
        if n != "Error" and _derives_from(n, "Error", bases_of))
    for name in error_classes:
        transient = _derives_from(name, "Transient", bases_of)
        if transient and name in terminal:
            findings.append(
                f"src/common/error.hpp: [error-taxonomy] {name} carries "
                f"Transient but is also listed terminal; remove one")
        elif not transient and name not in terminal:
            findings.append(
                f"[error-taxonomy] {name} derives from scalocate::Error but "
                f"is neither Transient nor in the terminal-errors list in "
                f"src/common/error.hpp; classify it so with_retry semantics "
                f"stay total")
    stale = terminal - set(error_classes)
    for name in sorted(stale):
        findings.append(
            f"src/common/error.hpp: [error-taxonomy] terminal-errors lists "
            f"'{name}' but no such Error subclass exists in src/")
    return findings


# ---------------------------------------------------------------------------
# Rule: metric-drift
# ---------------------------------------------------------------------------

# Instrument names that are assembled at runtime and therefore have no
# single string literal for the code-side scan to find. Keyed by the name's
# final dotted segment (the "leaf"); the value is where/why.
DYNAMIC_METRIC_LEAVES = {
    "ns": "kernels.<kind>.<m>x<n>x<k>.ns — per-shape timing histograms "
          "built at runtime in src/nn/kernels/gemm.cpp shape_histogram()",
}

_REGISTRATION = re.compile(r"(?:counter|gauge|histogram)\s*\(([^()]*)\)")
_STRING_LIT = re.compile(r'"([^"]*)"')
_BACKTICKED = re.compile(r"`([^`]+)`")


def _code_metric_literals(root: Path) -> dict[str, list[str]]:
    """Maps leaf -> ['path:line', ...] for every metric-name string literal
    passed to a counter()/gauge()/histogram() registration in src/."""
    leaves: dict[str, list[str]] = {}
    for path in _cxx_files(root):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        for m in _REGISTRATION.finditer(text):
            for lit in _STRING_LIT.findall(m.group(1)):
                if "." not in lit:
                    continue  # ("gemm", m, n, k)-style args, not names
                leaf = lit.rsplit(".", 1)[-1]
                lineno = text.count("\n", 0, m.start()) + 1
                leaves.setdefault(leaf, []).append(f"{rel}:{lineno}")
    return leaves


def _readme_metric_patterns(root: Path) -> tuple[set[str], str | None]:
    """Backticked instrument names from the README Observability table,
    with <placeholders> replaced by '*'. Returns (patterns, error)."""
    readme = root / "README.md"
    if not readme.is_file():
        return set(), "README.md: missing"
    lines = readme.read_text().splitlines()
    try:
        start = next(i for i, l in enumerate(lines)
                     if l.strip() == "## Observability")
    except StopIteration:
        return set(), "README.md: no '## Observability' section"
    patterns: set[str] = set()
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|") or set(line.strip("| ")) <= {"-"}:
            continue
        cells = line.split("|")
        if len(cells) < 3:
            continue
        for token in _BACKTICKED.findall(cells[2]):
            token = re.sub(r"<[^>]*>", "*", token)
            if "." in token and re.fullmatch(r"[\w.*]+", token):
                patterns.add(token)
    if not patterns:
        return set(), ("README.md: Observability table has no parseable "
                       "instrument names")
    return patterns, None


def check_metric_drift(root: Path) -> list[str]:
    patterns, err = _readme_metric_patterns(root)
    if err:
        return [f"{err} [metric-drift]"]
    doc_leaves = {p.rsplit(".", 1)[-1] for p in patterns}
    code_leaves = _code_metric_literals(root)
    findings = []
    for leaf, sites in sorted(code_leaves.items()):
        if leaf not in doc_leaves:
            findings.append(
                f"{sites[0]}: [metric-drift] metric name '*.{leaf}' is "
                f"registered in src/ but missing from the README "
                f"Observability table")
    for leaf in sorted(doc_leaves):
        if leaf not in code_leaves and leaf not in DYNAMIC_METRIC_LEAVES:
            findings.append(
                f"README.md: [metric-drift] Observability table documents "
                f"an instrument ending '.{leaf}' but no registration in "
                f"src/ uses that name (if the name is built dynamically, "
                f"declare it in DYNAMIC_METRIC_LEAVES in "
                f"tools/scalocate_lint.py)")
    return findings


# ---------------------------------------------------------------------------
# Rule: header-using
# ---------------------------------------------------------------------------

def _strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals (preserving newlines) so
    brace tracking and `using namespace` matching see only code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def check_header_using(root: Path) -> list[str]:
    findings = []
    for path in _cxx_files(root):
        if path.suffix != ".hpp":
            continue
        rel = path.relative_to(root).as_posix()
        text = _strip_comments_and_strings(path.read_text())
        # Each '{' is a namespace brace iff the code before it ends with a
        # namespace introducer; `using namespace` is at namespace scope iff
        # every enclosing brace is a namespace brace.
        depth_other = 0  # non-namespace braces currently open
        stack = []
        for m in re.finditer(r"[{}]|using\s+namespace\b", text):
            tok = m.group(0)
            if tok == "{":
                is_ns = re.search(r"namespace\s+[\w:]*\s*$|namespace\s*$",
                                  text[max(0, m.start() - 120):m.start()])
                stack.append(bool(is_ns))
                depth_other += 0 if is_ns else 1
            elif tok == "}":
                if stack and not stack.pop():
                    depth_other -= 1
            elif depth_other == 0:
                lineno = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel}:{lineno}: [header-using] `using namespace` at "
                    f"namespace scope in a header injects names into every "
                    f"includer; qualify the names or move the directive "
                    f"into a function body")
    return findings


# ---------------------------------------------------------------------------
# Rule: isa-comdat
# ---------------------------------------------------------------------------

# The kernel TUs compiled with different -m flags (see CMakeLists.txt).
ISA_TU_BASELINE = "src/nn/kernels/gemm.cpp"
ISA_TU_GLOB = "src/nn/kernels/gemm_avx*.cpp"

_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
# `name<args>(`: a call with explicit template arguments.
_TEMPLATE_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*<([^<>;{}]*)>\s*\(")


def _isa_tus(root: Path) -> list[Path]:
    tus = sorted(root.glob(ISA_TU_GLOB))
    baseline = root / ISA_TU_BASELINE
    return ([baseline] if baseline.is_file() else []) + tus


def _included_headers(root: Path, path: Path) -> list[Path]:
    """Repo headers `path` includes, transitively (resolved under src/)."""
    seen: list[Path] = []
    stack = [path]
    while stack:
        for inc in _INCLUDE.findall(stack.pop().read_text()):
            hdr = root / "src" / inc
            if hdr.is_file() and hdr not in seen:
                seen.append(hdr)
                stack.append(hdr)
    return seen


def _matching(text: str, i: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket that closes the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _split_args(args: str) -> list[str]:
    return [a.strip() for a in args.split(",")] if args.strip() else []


def _function_templates(text: str) -> dict[str, list[tuple[list[str], str]]]:
    """Maps name -> [(template parameter names, body)] for every
    external-linkage function template defined in `text` (comments and
    strings already blanked). Class templates and `static` function
    templates (internal linkage) are skipped."""
    out: dict[str, list[tuple[list[str], str]]] = {}
    for m in re.finditer(r"\btemplate\s*<", text):
        params_end = _matching(text, m.end() - 1, "<", ">")
        params = [re.findall(r"\w+", p)[-1]
                  for p in _split_args(text[m.end():params_end - 1])
                  if re.findall(r"\w+", p)]
        head = re.match(r"[^;{(]*\(", text[params_end:])
        if head is None or re.match(r"\s*(struct|class|union|using)\b",
                                    text[params_end:]):
            continue
        decl = head.group(0)
        name = re.findall(r"([A-Za-z_]\w*)\s*\($", decl)
        if not name or re.search(r"\bstatic\b", decl):
            continue
        open_paren = params_end + len(decl) - 1
        after = _matching(text, open_paren, "(", ")")
        body_start = re.match(r"[^;{]*", text[after:]).end() + after
        if body_start >= len(text) or text[body_start] != "{":
            continue  # declaration only
        body = text[body_start:_matching(text, body_start, "{", "}")]
        out.setdefault(name[0], []).append((params, body))
    return out


def _evaluate(arg: str, binding: dict[str, str]) -> str:
    expr = re.sub(r"\b[A-Za-z_]\w*\b",
                  lambda t: binding.get(t.group(0), t.group(0)), arg)
    if re.fullmatch(r"[\d\s+\-*/()]+", expr):
        return str(eval(expr.replace("/", "//")))  # integer arithmetic only
    return re.sub(r"\s+", " ", expr)


def _instantiations(text: str, templates, binding=None) -> set[tuple]:
    binding = binding or {}
    calls = set()
    for m in _TEMPLATE_CALL.finditer(text):
        if m.group(1) in templates:
            calls.add((m.group(1), tuple(_evaluate(a, binding)
                                         for a in _split_args(m.group(2)))))
    return calls


def _instantiation_closure(text: str, templates) -> set[tuple]:
    """Every (template, args) the TU text instantiates, following the
    instantiated templates' bodies."""
    done: set[tuple] = set()
    todo = list(_instantiations(text, templates))
    while todo:
        inst = todo.pop()
        if inst in done:
            continue
        done.add(inst)
        name, args = inst
        for params, body in templates.get(name, ()):
            binding = dict(zip(params, args))
            todo.extend(_instantiations(body, templates, binding) - done)
    return done


def check_isa_comdat(root: Path) -> list[str]:
    emitted: dict[tuple, list[str]] = {}
    for tu in _isa_tus(root):
        rel = tu.relative_to(root).as_posix()
        templates: dict[str, list] = {}
        for hdr in _included_headers(root, tu):
            for name, defs in _function_templates(
                    _strip_comments_and_strings(hdr.read_text())).items():
                templates.setdefault(name, []).extend(defs)
        text = _strip_comments_and_strings(tu.read_text())
        for inst in _instantiation_closure(text, templates):
            emitted.setdefault(inst, []).append(rel)
    findings = []
    for (name, args), tus in sorted(emitted.items()):
        if len(tus) < 2:
            continue
        findings.append(
            f"{tus[-1]}: [isa-comdat] {name}<{', '.join(args)}> is "
            f"instantiated by {', '.join(tus)}; the linker keeps one COMDAT "
            f"copy, so one ISA's code can run on a CPU without it. Give "
            f"each TU its own tile or template arguments, or make the "
            f"template static")
    return findings


# ---------------------------------------------------------------------------
# Rule: serving-executor
# ---------------------------------------------------------------------------

SERVING_DIRS = ("src/runtime/", "src/api/")

# `IntraOpGuard name(args)`, `IntraOpGuard(args)`, `set_intra_op_threads(args)`.
_BUDGET_SET = re.compile(
    r"\b(IntraOpGuard|set_intra_op_threads)\b(?:\s+[A-Za-z_]\w*)?\s*"
    r"[({]([^(){}]*)[)}]")


def check_serving_executor(root: Path) -> list[str]:
    findings = []
    for path in _cxx_files(root):
        rel = path.relative_to(root).as_posix()
        if not rel.startswith(SERVING_DIRS):
            continue
        text = _strip_comments_and_strings(path.read_text())
        for m in _BUDGET_SET.finditer(text):
            if m.group(2).strip() == "1":
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            findings.append(
                f"{rel}:{lineno}: [serving-executor] {m.group(1)} with "
                f"budget `{m.group(2).strip()}`; serving code pins the "
                f"intra-op budget to the literal 1 and runs parallel work "
                f"as tasks on the engine's ThreadPool")
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RULES = {
    "memory-order": check_memory_order,
    "error-taxonomy": check_error_taxonomy,
    "metric-drift": check_metric_drift,
    "header-using": check_header_using,
    "isa-comdat": check_isa_comdat,
    "serving-executor": check_serving_executor,
}


def run(root: Path, rules=None) -> list[str]:
    findings = []
    for name in rules or RULES:
        findings.extend(RULES[name](root))
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: this file's parent dir)")
    ap.add_argument("--rule", action="append", choices=sorted(RULES),
                    help="run only this rule (repeatable; default: all)")
    args = ap.parse_args(argv)
    findings = run(args.root.resolve(), args.rule)
    for f in findings:
        print(f)
    print(f"scalocate_lint: {len(findings)} finding(s) "
          f"across {len(args.rule or RULES)} rule(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
