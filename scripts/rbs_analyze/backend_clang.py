"""libclang backend: AST-grounded facts from compile_commands.json.

Used automatically when the `clang` Python package (libclang bindings) is
importable — `python3 -c "import clang.cindex"` is the preflight. The CI
image installs `python3-clang`; the default dev container does not, and
falls back to the textual backend with identical rule ids and workflow.

The visitors mirror scripts/rbs_analyze/rules.py rule-for-rule; the AST
gives them exact type information where the textual backend approximates
with declared-name indexes.

The concurrency rules (R6–R8) are the exception: they hinge on declaration
shapes (RBS_GUARDED_BY annotation macros, capture lists, enum-constant
adjacency) that libclang does not surface — GNU thread-safety attributes
are invisible to the Python bindings. Both backends therefore run R6–R8
through the shared token engine over the same cross-TU symbol index, which
makes their findings identical by construction rather than by convention.
The token-level parts of R1, R2 and R4 (rules.TOKEN_CHECKS: std engines,
time() calls, raw picosecond literals, unordered declarations, seedless
Rngs) run through the same engine next to the AST visitors below.
"""
from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from .findings import Finding, apply_suppressions, collect_suppressions
from .rules import (
    ALL_RULES,
    RAW_SCALAR_TYPES,
    SCHEDULER_CALLS,
    TOKEN_CHECKS,
    UNIT_SUFFIXES,
    WALL_CLOCK_ALLOWED_PREFIXES,
    WALL_CLOCK_IDENTS,
    build_context,
)

NAME = "clang"

# Rules evaluated by the shared token engine in every backend (see module
# docstring). R9 rides along: it reads raw text, not the AST, so both
# backends agree on every metric-name finding by construction. R10–R12 hinge
# on spelling (std:: qualification vs the check::mc wrapper names), which
# the AST erases through typedefs — token engine in both backends.
TOKEN_ENGINE_RULES = ("R6", "R7", "R8", "R9", "R10", "R11", "R12")


def available() -> bool:
    try:
        import clang.cindex  # noqa: F401

        return True
    except ImportError:
        return False


def _rel(repo: Path, filename: str) -> Optional[str]:
    try:
        return Path(filename).resolve().relative_to(repo.resolve()).as_posix()
    except ValueError:
        return None


def _is_unordered(type_spelling: str) -> bool:
    return "unordered_map<" in type_spelling or "unordered_set<" in type_spelling


def analyze(repo: Path, files: List[Path], rules: List[str],
            compdb_dir: Optional[Path] = None) -> List[Finding]:
    import clang.cindex as ci

    ast_rules = [r for r in rules if r not in TOKEN_ENGINE_RULES]
    token_checks = [ALL_RULES[r] for r in rules if r in TOKEN_ENGINE_RULES]
    token_checks += [TOKEN_CHECKS[r] for r in ast_rules if r in TOKEN_CHECKS]

    findings: List[Finding] = []
    if token_checks:
        findings.extend(_token_engine(repo, files, token_checks))

    index = ci.Index.create()
    compdb = None
    if compdb_dir is not None and (compdb_dir / "compile_commands.json").exists():
        compdb = ci.CompilationDatabase.fromDirectory(str(compdb_dir))

    want = {f.resolve() for f in files}
    sources = [f for f in want if f.suffix in (".cpp", ".cc")]

    for src in sorted(sources):
        args = ["-std=c++20", f"-I{repo / 'src'}"]
        if compdb is not None:
            cmds = compdb.getCompileCommands(str(src))
            if cmds:
                raw = list(cmds[0].arguments)[1:-1]  # strip compiler and file
                args = [a for a in raw if a not in ("-c", "-o") and not a.endswith(".o")]
        try:
            tu = index.parse(str(src), args=args)
        except ci.TranslationUnitLoadError:
            continue
        findings.extend(_visit_tu(repo, tu, ast_rules, want))

    suppressions = {}
    for f in files:
        rel = _rel(repo, str(f))
        if rel is not None:
            try:
                suppressions[rel] = collect_suppressions((repo / rel).read_text(errors="replace"))
            except OSError:
                pass
    # A header is parsed once per includer: dedupe identical findings.
    return sorted(set(apply_suppressions(findings, suppressions)))


def _token_engine(repo: Path, files: List[Path], checks) -> List[Finding]:
    """Runs token-stream checks (whole rules or TOKEN_CHECKS parts) exactly
    as the textual backend does, so both backends agree on their findings."""
    from .lexer import tokenize

    tokens = {}
    for f in files:
        rel = _rel(repo, str(f)) if f.is_absolute() else f.as_posix()
        if rel is None:
            continue
        try:
            text = (repo / rel).read_text(errors="replace")
        except OSError:
            continue
        tokens[rel] = tokenize(text)
    ctx = build_context(tokens, repo)
    out: List[Finding] = []
    for rel, toks in tokens.items():
        for check in checks:
            out.extend(check(rel, toks, ctx))
    return out


def _visit_tu(repo: Path, tu, rules: List[str], want) -> List[Finding]:
    import clang.cindex as ci

    K = ci.CursorKind
    out: List[Finding] = []

    def loc(cursor):
        f = cursor.location.file
        if f is None:
            return None, 0
        p = Path(f.name)
        if p.resolve() not in want and not str(p).startswith(str(repo)):
            return None, 0
        return _rel(repo, f.name), cursor.location.line

    def walk(cursor):
        rel, line = loc(cursor)
        if rel is not None:
            kind = cursor.kind
            if "R1" in rules:
                if kind in (K.DECL_REF_EXPR, K.TYPE_REF):
                    name = cursor.spelling
                    if name == "random_device":
                        out.append(Finding(rel, line, "R1",
                                           "std::random_device is nondeterministic",
                                           "seed a sim::Rng from the simulation seed instead"))
                    elif name in WALL_CLOCK_IDENTS and not rel.startswith(
                        WALL_CLOCK_ALLOWED_PREFIXES
                    ):
                        out.append(Finding(rel, line, "R1", f"wall-clock read via {name}",
                                           "simulated code must use sim::SimTime / Simulation::now()"))
                if kind == K.CALL_EXPR and cursor.spelling in ("rand", "srand", "rand_r"):
                    out.append(Finding(rel, line, "R1",
                                       f"C library {cursor.spelling}() uses hidden global state",
                                       "use sim::Rng forked from a named stream"))
                if kind in (K.VAR_DECL, K.FIELD_DECL):
                    ts = cursor.type.spelling
                    for cont in ("std::map<", "std::set<"):
                        if ts.startswith(cont) and ts[len(cont):].split(",")[0].rstrip().endswith("*"):
                            out.append(Finding(rel, line, "R1",
                                               "ordered container keyed by a pointer type "
                                               "iterates in address order",
                                               "key by a stable id instead of a pointer"))
            if "R2" in rules and kind == K.CXX_FOR_RANGE_STMT:
                children = list(cursor.get_children())
                if len(children) >= 2 and _is_unordered(children[-2].type.spelling):
                    out.append(Finding(rel, line, "R2",
                                       "iteration over an unordered container with observable "
                                       "effects (order depends on hash layout)",
                                       "collect keys into a vector and std::sort before acting, "
                                       "use an ordered container, or justify with "
                                       "// rbs-analyze: allow(R2) -- <reason>"))
            if "R3" in rules and rel.endswith((".hpp", ".h")) and rel.startswith("src/"):
                if kind in (K.PARM_DECL, K.FIELD_DECL):
                    name = cursor.spelling or ""
                    stripped = name[:-1] if name.endswith("_") else name
                    base = cursor.type.spelling.replace("const", "").replace("std::", "").strip()
                    if stripped.endswith(UNIT_SUFFIXES) and base in RAW_SCALAR_TYPES:
                        out.append(Finding(rel, line, "R3",
                                           f"raw {base} '{name}' carries a unit in its name",
                                           "use the strong types in src/core/units.hpp across this API"))
            if "R4" in rules and not rel.startswith("tests/"):
                if kind == K.VAR_DECL and cursor.type.spelling.endswith("Rng"):
                    kids = list(cursor.get_children())
                    lits = [c for c in kids for g in [c] if g.kind == K.INTEGER_LITERAL]
                    if not kids:
                        out.append(Finding(rel, line, "R4",
                                           f"Rng '{cursor.spelling}' default-constructed (unseeded)",
                                           "fork from a named stream: sim.rng().fork(kMyStream)"))
                    elif lits:
                        out.append(Finding(rel, line, "R4",
                                           "Rng seeded with a bare integer literal",
                                           "derive from the run seed via a named stream"))
            if "R5" in rules and kind == K.CALL_EXPR and cursor.spelling in SCHEDULER_CALLS:
                for child in cursor.walk_preorder():
                    if child.kind == K.LAMBDA_EXPR:
                        toks = [t.spelling for t in child.get_tokens()][:32]
                        try:
                            close = toks.index("]")
                        except ValueError:
                            close = len(toks)
                        caps = toks[1:close]
                        if any(t == "&" and (k == 0 or caps[k - 1] == ",")
                               for k, t in enumerate(caps)):
                            crel, cline = loc(child)
                            if crel is not None:
                                out.append(Finding(crel, cline, "R5",
                                                   f"by-reference capture in a lambda passed to "
                                                   f"{cursor.spelling}() — the pooled event may "
                                                   "outlive the captured frame",
                                                   "capture by value (or capture `this` and use "
                                                   "members); events fire after the enclosing "
                                                   "scope returns"))
        for child in cursor.get_children():
            walk(child)

    walk(tu.cursor)
    return out
