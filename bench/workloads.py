"""The four benchmark workloads: seeded inputs, set-up and checked ops.

Every workload builds its algebras from the shipped corpus specs through
the public ``parse_spec`` -> ``resolve_spec`` -> (``relabel``) ->
``construct_hopf`` path. A workload's ``setup(lib, root, seed)`` returns a
``State`` whose ``ops`` list is the whole seeded input stream; ``run_op``
executes one op and returns ``None`` when its independent check passed or
a one-line failure description otherwise.

``lib`` is the namespace returned by ``load_library``. The benchmark always
reaches library functions through module attributes at call time, so the
tracer's wrappers (installed after set-up) see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

LIB_MODULES = ("scalar", "basehopf", "uqsl2", "ambicore", "hopfstruct",
               "coradical", "properties", "exprparse", "cli")

# The engine operand shape. Criterion 7 of the test suite draws X-degree <= 3;
# at that degree a single uqsl2-variant triple takes up to 6.5 s (per-op
# coefficient of variation 3.0), so a run of a few seconds cannot give a
# steady throughput. X-degree <= 1 keeps the Q(q) and cyclotomic kernels
# dominant while giving ~1700 ops per 20 s run.
ENGINE_SHAPE = {"max_terms": 2, "max_degree": 1, "base_support": 2}
# criterion 1 draws its axiom-suite elements with this shape
AXIOM_SHAPE = {"max_terms": 2, "max_degree": 3, "base_support": 1}
ORACLE_MAX = 5           # delta_mixed_closed(m, n) for m, n <= 5
CONFLUENCE_EVERY = 4     # every 4th round of the engine round-robin is confluence
ENGINE_POOL = 3000       # ops generated per engine run; the loop cycles if it runs out
HOPF_POOL = 12000
SCALARS = (1, -1, 2, 3)

QFUNC_SPECS = ("uqsl2-variant", "quantum-affine", "uqsl2", "uqsl2-general")
CYCLOTOMIC_SPECS = ("uqsl2-case3", "uqsl2-case3-h0", "uqsl2-counit-root")
RATIONAL_SPECS = ("usl2", "heisenberg", "solvable", "laurent-asym", "uqsl2-root", "bad-xi")
CLI_PLAIN_COMMANDS = ("check", "classify", "props", "relabel")
CLI_EXPR_COMMANDS = ("mul", "coprod", "antipode", "corad")
FORMATS = ("text", "machine")
HOSTILE_TIMEOUT_S = 3.0


def load_library(root: Path) -> SimpleNamespace:
    """Import a fresh copy of the abhk package from ``root/src``.

    Any previously imported copy is dropped first, so every call pays the
    full import and starts with empty module-level caches."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "abhk" or n.startswith("abhk.")]:
        del sys.modules[name]
    package = importlib.import_module("abhk")
    if Path(package.__file__).resolve().parent != (root / "src" / "abhk").resolve():
        raise RuntimeError(f"imported abhk from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"abhk.{name}") for name in LIB_MODULES}
    return SimpleNamespace(**modules)


def spec_path(root: Path, name: str) -> Path:
    return root / "src" / "abhk" / "corpus" / f"{name}.abhk"


def build_hopf(lib, text: str):
    """The public construction path; returns (hopf, report, document)."""
    doc = lib.exprparse.parse_spec(text)
    spec = lib.exprparse.resolve_spec(doc)
    if spec.general is not None:
        data, _ = lib.hopfstruct.relabel(spec.general)
    else:
        data = spec.data
    hopf, report = lib.hopfstruct.construct_hopf(spec.base, data)
    return hopf, report, doc


# ---------------------------------------------------------------------------
# seeded operands (the criterion-1/criterion-7 generators, parameterised)


DECK_COPIES = 8


class Decks:
    """Seeded draws that deal each choice point's options from a shuffled
    deck of DECK_COPIES copies of each, refilled when empty. The share of
    every option in a pool is then exact to within one deck instead of
    binomial, so the pool's cost mix, and with it ops_per_s and the latency
    percentiles, moves much less from one seed to the next. The copies keep
    successive draws nearly independent: with one copy, the two monomials
    of a base element would rarely coincide, and elements would be costlier
    than the independent draws of the test suite's generators."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.decks: dict = {}

    def choice(self, site: str, options: tuple):
        deck = self.decks.get((site, options))
        if not deck:
            deck = list(options) * DECK_COPIES
            self.rng.shuffle(deck)
            self.decks[(site, options)] = deck
        return deck.pop()

    def randint(self, site: str, low: int, high: int) -> int:
        return self.choice(site, tuple(range(low, high + 1)))


# a word letter is X+ or X- with probability 0.35 each, a base element otherwise
WORD_LETTERS = ("X+",) * 7 + ("X-",) * 7 + ("base",) * 6


def random_base_element(draw: Decks, base, max_support: int):
    field_ = base.field
    out = base.zero()
    for _ in range(draw.randint("support", 1, max_support)):
        family = base.family
        if family == "polynomial":
            mono = base.generator("t", draw.randint("t", 0, 2))
        elif family == "laurent":
            mono = base.generator("t", draw.randint("t", -2, 2))
        elif family == "uqsl2":
            mono = base.generator("K", draw.randint("K", -1, 1))
            side = draw.choice("E/F", (None, "E", "F", None))
            if side is not None:
                mono = mono * base.generator(side, 1)
        else:
            raise ValueError(f"no operand generator for base family {family!r}")
        out = out + mono.scale(field_.from_int(draw.choice("scalar", SCALARS)))
    return out


def random_element(draw: Decks, algebra, max_terms: int, max_degree: int,
                   base_support: int):
    out = algebra.zero()
    for _ in range(draw.randint("terms", 1, max_terms)):
        m = draw.randint("m", 0, max_degree)
        n = draw.randint("n", 0, max_degree - m)
        coeff = random_base_element(draw, algebra.base, base_support)
        out = out + algebra.monomial(coeff, m, n)
    if out.is_zero():
        out = algebra.one()
    return out


def random_word(draw: Decks, algebra):
    word = []
    for _ in range(draw.randint("length", 1, 5)):
        letter = draw.choice("letter", WORD_LETTERS)
        word.append(random_base_element(draw, algebra.base, 1) if letter == "base" else letter)
    return tuple(word)


# ---------------------------------------------------------------------------
# workload plumbing


@dataclass
class State:
    lib: SimpleNamespace
    ops: list
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    setup: object        # (lib, root, seed) -> State
    run_op: object       # (state, op) -> None | str
    trace_ops: int       # ops in the fixed-size traced pass
    warmup_ops: int = 0  # ops run untimed before the window (warm caches)
    finish: object = None  # (state, root) -> list of (label, failure or None)
    examples: bool = False  # also time `abhk examples` subprocesses (examples_s)


# ---------------------------------------------------------------------------
# engine-qfunc and engine-cyclotomic


def _engine_setup(spec_names):
    def setup(lib, root, seed):
        hopfs = [build_hopf(lib, spec_path(root, name).read_text(encoding="utf-8"))[0]
                 for name in spec_names]
        draw = Decks(seed)
        ops = []
        for i in range(ENGINE_POOL):
            k = i % len(hopfs)
            algebra = hopfs[k].algebra
            if (i // len(hopfs)) % CONFLUENCE_EVERY == CONFLUENCE_EVERY - 1:
                ops.append(("confluence", k, random_word(draw, algebra),
                            draw.rng.randrange(2**32)))
            else:
                ops.append(("triple", k) + tuple(
                    random_element(draw, algebra, **ENGINE_SHAPE) for _ in range(3)))
        return State(lib, ops, {"hopfs": hopfs, "names": spec_names})
    return setup


def _engine_run(state, op):
    kind, k = op[0], op[1]
    if kind == "triple":
        a, b, c = op[2:]
        if (a * b) * c == a * (b * c):
            return None
        return f"associativity fails on {state.context['names'][k]}"
    word, word_seed = op[2], op[3]
    algebra = state.context["hopfs"][k].algebra
    reduce_word = state.lib.ambicore.reduce_word
    left = reduce_word(algebra, word, "leftmost")
    right = reduce_word(algebra, word, "rightmost")
    shuffled = reduce_word(algebra, word, "random", rng=random.Random(word_seed))
    if left == right == shuffled:
        return None
    return f"rewrite orders disagree on {state.context['names'][k]}"


# ---------------------------------------------------------------------------
# hopf-rational


def _hopf_setup(lib, root, seed):
    texts = {name: spec_path(root, name).read_text(encoding="utf-8") for name in RATIONAL_SPECS}
    hopfs, names = [], []
    for name in RATIONAL_SPECS:
        if name == "bad-xi":
            continue
        hopfs.append(build_hopf(lib, texts[name])[0])
        names.append(name)
    draw = Decks(seed)
    pairs = tuple((m, n) for m in range(ORACLE_MAX + 1) for n in range(ORACLE_MAX + 1))
    ops = []
    for i in range(HOPF_POOL):
        kind = ("construct", "axiom", "oracle")[i % 3]
        if kind == "construct":
            ops.append((kind, RATIONAL_SPECS[(i // 3) % len(RATIONAL_SPECS)]))
            continue
        k = (i // 3) % len(hopfs)
        if kind == "axiom":
            ops.append((kind, k, random_element(draw, hopfs[k].algebra, **AXIOM_SHAPE)))
            continue
        ops.append((kind, k) + draw.choice("oracle", pairs))
    return State(lib, ops, {"hopfs": hopfs, "names": names, "texts": texts})


def _expect_entry(doc, key):
    return None if doc.expect is None else doc.expect.entries.get(key)


def _hopf_run(state, op):
    lib = state.lib
    kind = op[0]
    if kind == "construct":
        name = op[1]
        text = state.context["texts"][name]
        if name == "bad-xi":
            return _refusal_check(lib, text)
        hopf, report, doc = build_hopf(lib, text)
        want = frozenset(p.strip() for p in _expect_entry(doc, "classification").split(","))
        if report.overall and report.classification == want:
            return None
        return f"construct {name}: classification {sorted(report.classification)}"
    hopf = state.context["hopfs"][op[1]]
    name = state.context["names"][op[1]]
    algebra = hopf.algebra
    Tensor = lib.ambicore.Tensor
    if kind == "axiom":
        x = op[2]
        d = hopf.delta(x)
        if d.expand_leg(0, hopf.delta_leg) != d.expand_leg(1, hopf.delta_leg):
            return f"coassociativity fails on {name}"
        single = Tensor.of(x)
        if d.contract_leg(0, hopf.counit_leg) != single or d.contract_leg(1, hopf.counit_leg) != single:
            return f"counit axiom fails on {name}"
        target = Tensor.of(algebra.one().scale(hopf.counit(x)))
        if (d.map_leg(0, hopf.antipode_leg).merge_legs(0) != target
                or d.map_leg(1, hopf.antipode_leg).merge_legs(0) != target):
            return f"antipode axiom fails on {name}"
        return None
    m, n = op[2], op[3]
    engine = hopf.delta(algebra.xplus() ** m * algebra.xminus() ** n)
    if lib.coradical.delta_mixed_closed(hopf, m, n) == engine:
        return None
    return f"closed-form coproduct differs on {name} at ({m}, {n})"


def _refusal_check(lib, text):
    """bad-xi must be refused, and the checker must name the witness the
    spec expects."""
    doc = lib.exprparse.parse_spec(text)
    spec = lib.exprparse.resolve_spec(doc)
    try:
        lib.hopfstruct.construct_hopf(spec.base, spec.data)
    except lib.hopfstruct.HopfDataError:
        report = lib.hopfstruct.check_main_theorem(spec.base, spec.data)
        blob = " ".join(f"{c.name} {c.witness}" for c in report.failures())
        witness = _expect_entry(doc, "witness")
        return None if witness in blob else f"bad-xi refused without witness {witness!r}"
    return "bad-xi was not refused"


# ---------------------------------------------------------------------------
# cli-corpus

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli.json"


def cli_commands(lib, root: Path) -> list:
    """Every command x every corpus spec x both formats, in a fixed order.

    Expression commands run on the left-hand sides of the spec's own
    ``expect`` identities and on its ``corad`` expressions."""
    commands = []
    for path in sorted((root / "src" / "abhk" / "corpus").glob("*.abhk")):
        doc = lib.exprparse.parse_spec(path.read_text(encoding="utf-8"))
        exprs = []
        if doc.expect is not None:
            for block in ("identities", "corad"):
                if block in doc.expect.blocks:
                    exprs.extend(doc.expect.blocks[block].entries)
        for fmt in FORMATS:
            for cmd in CLI_PLAIN_COMMANDS:
                commands.append((fmt, cmd, path.stem, None))
            for expr in exprs:
                for cmd in CLI_EXPR_COMMANDS:
                    commands.append((fmt, cmd, path.stem, expr))
    return commands


def command_key(command) -> str:
    fmt, cmd, spec, expr = command
    return "|".join([fmt, cmd, spec] + ([expr] if expr is not None else []))


def command_argv(root: Path, command) -> list:
    fmt, cmd, spec, expr = command
    return ["--format", fmt, cmd, str(spec_path(root, spec))] + ([expr] if expr is not None else [])


def call_cli(lib, argv):
    """Run ``abhk.cli.main(argv)`` in-process; returns (exit code, stdout,
    stderr). An exception escaping main is reported the way the
    interpreter would report it: exit 1 and a traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:  # an uncaught error is the result being measured
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def load_goldens(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


GOLDEN_RATIO_FRACTION = (5 ** 0.5 - 1) / 2


def spread_order(items, cell_of, rng: random.Random) -> list:
    """A seeded order whose every prefix is a near-systematic sample of
    ``items``. The items are sorted by ``cell_of`` (shuffled within a cell)
    and the i-th gets the key frac(u + i * 0.618...) for a seeded u; sorted
    by key, any prefix takes items evenly spaced along the sorted list, so
    each cell, and each run of neighbouring cells, appears in proportion
    to its size instead of by chance."""
    cells: dict = {}
    for item in items:
        cells.setdefault(cell_of(item), []).append(item)
    ordered = []
    for cell in sorted(cells, key=str):
        members = cells[cell]
        rng.shuffle(members)
        ordered += members
    u = rng.random()
    keyed = sorted(((u + i * GOLDEN_RATIO_FRACTION) % 1.0, i) for i in range(len(ordered)))
    return [ordered[i] for _, i in keyed]


def _cli_setup(lib, root, seed):
    # the seed only permutes the order; a window runs part of one pass, and
    # commands of one (command, spec) cell cost alike, so every prefix takes
    # each cell in proportion
    commands = spread_order(cli_commands(lib, root), lambda c: (c[1], c[2]), random.Random(seed))
    return State(lib, commands, {"root": root, "goldens": load_goldens()["commands"]})


def _cli_run(state, command):
    code, out, _ = call_cli(state.lib, command_argv(state.context["root"], command))
    want = state.context["goldens"].get(command_key(command))
    if want is None:
        return f"no golden output for {command_key(command)}"
    if code != want["exit"] or out != want["stdout"]:
        return f"output differs from golden for {command_key(command)}"
    return None


# Malformed inputs from ROADMAP item 4. The CLI contract says each must exit
# 2 with no traceback; none does at the commit the goldens come from. The
# rows run once per cli-corpus run and are reported as known defects beside
# the result, not counted among its ops, so the defects stay visible.
DEFECT_ROWS = (
    ("field-cyclotomic-x", ["--field", "cyclotomic:x", "check", "usl2"]),
    ("field-cyclotomic-0", ["--field", "cyclotomic:0", "check", "usl2"]),
    ("nmax-negative", ["--nmax", "-5", "props", "usl2"]),
    ("inverse-of-zero", ["mul", "uqsl2-variant", "(q-q)^-1"]),
    ("hostile-power", ["mul", "uqsl2-variant", "(q+1)^3000"]),
)
SUBPROCESS_ROWS = {"hostile-power"}  # never finishes in-process at this commit


def defect_argv(root: Path, argv) -> list:
    out = list(argv)
    for i, word in enumerate(out):
        if word in ("usl2", "uqsl2-variant"):
            out[i] = str(spec_path(root, word))
    return out


def contract_failure(code, stderr):
    """The CLI input-error contract: exit 2 and no traceback."""
    if code == 2 and "Traceback" not in stderr:
        return None
    reason = "timed out" if code is None else f"exit {code}"
    if "Traceback" in stderr:
        reason += ", traceback on stderr"
    return reason


def run_cli_subprocess(root: Path, argv, timeout: float):
    """Run the CLI as ``python -m abhk.cli`` under a timeout; returns
    (exit code or None on timeout, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen([sys.executable, "-m", "abhk.cli", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err


def defect_rows(state, root: Path) -> list:
    """Run the malformed-input rows once; returns (label, failure or None)."""
    results = []
    for label, argv in DEFECT_ROWS:
        argv = defect_argv(root, argv)
        if label in SUBPROCESS_ROWS:
            code, _, err = run_cli_subprocess(root, argv, HOSTILE_TIMEOUT_S)
        else:
            code, _, err = call_cli(state.lib, argv)
        results.append((label, contract_failure(code, err)))
    return results


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "engine-qfunc",
            ("warm-cache products and rewrite-order checks over Q(q): the Q(q) "
             "_make/poly_gcd kernel dominates, so a Q(q) scalar fast path shows here"),
            f"triples and words on {', '.join(QFUNC_SPECS)}; elements {ENGINE_SHAPE}",
            _engine_setup(QFUNC_SPECS), _engine_run, trace_ops=400,
            warmup_ops=10 * len(QFUNC_SPECS) * CONFLUENCE_EVERY),
        Workload(
            "engine-cyclotomic",
            ("same op mix over Q(zeta_8) and Q(zeta_3): cyclotomic poly_mul/poly_divmod "
             "and the uqsl2 base product, no Q(q) gcd, so Q(q) changes must stay flat"),
            f"triples and words on {', '.join(CYCLOTOMIC_SPECS)}; elements {ENGINE_SHAPE}",
            _engine_setup(CYCLOTOMIC_SPECS), _engine_run, trace_ops=400,
            warmup_ops=10 * len(CYCLOTOMIC_SPECS) * CONFLUENCE_EVERY),
        Workload(
            "hopf-rational",
            ("Q-field specs with cheap Fraction arithmetic: cold construction, axiom "
             "checks and closed-form coproducts weight the rewriting, tensor and checker layers"),
            f"construct/axiom/oracle on {', '.join(RATIONAL_SPECS)}; axiom elements "
            f"{AXIOM_SHAPE}; oracle m, n <= {ORACLE_MAX}",
            _hopf_setup, _hopf_run, trace_ops=300, warmup_ops=30),
        Workload(
            "cli-corpus",
            ("cold in-process CLI commands over the whole corpus, golden-checked: every "
             "algebra and cache starts empty, so work moved into set-up or pre-warming shows"),
            "every command x corpus spec x format, seeded order, golden-checked",
            _cli_setup, _cli_run, trace_ops=80, finish=defect_rows, examples=True),
    )
}
