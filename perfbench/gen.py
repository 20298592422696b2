"""Seeded generators for the benchmark corpora, each with its answer key.

A corpus is a set of `.ex` files plus the diagnostic codes each file must
produce. The key comes from the generator's own record of what it wrote:
every `def` clause written without a `@spec` must report `I_UNTYPED_DEF`, and
every planted error comes from a hand-written template in `ERROR_TEMPLATES`
whose code is fixed there. The key is never derived by running the checker.

The seed picks names, literals, statement kinds, templates and where they
go. It does not pick how much work a corpus is: file sizes, statement counts
and error counts are fixed per workload, so two seeds cost the same to check.

Shape distributions (the robustness probes in `run.py` cover the extremes):
  * a cons-list literal has 1 to 6 elements, uniform, because hand-written
    list literals are short;
  * an expression nests at most 3 operator or call levels below its
    statement, because the code is written a statement per binding;
  * a map record has 16 to 48 keys (dense_bodies) or 2 to 5 (elsewhere).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

INT, FLT, BOOL, STR, ATOM, ANY = "integer", "float", "boolean", "string", "atom", "any"
TAGGED = ("tuple", (ATOM, INT))
PAIR = ("tuple", (INT, STR))
INT_LIST = ("list", INT)
STR_LIST = ("list", STR)

UNTYPED = "I_UNTYPED_DEF"

_WORDS = (
    "account amount balance batch bucket cache cart charge client count cursor "
    "delta entry event fee field filter flag grade group index invoice item "
    "label limit line order owner page price queue rate record region report "
    "score session share slot stock store summary tally target tax ticket "
    "token total user value vendor weight window"
).split()
_MODULE_WORDS = (
    "Billing Catalog Checkout Inventory Ledger Metrics Orders Payments "
    "Pricing Reports Search Shipping Stock Users Vendors Wallet"
).split()


def spec_text(t) -> str:
    """A generator type written in `@spec` surface syntax."""
    if isinstance(t, str):
        return t
    if t[0] == "list":
        return f"[{spec_text(t[1])}]"
    if t[0] == "tuple":
        return "{" + ", ".join(spec_text(i) for i in t[1]) + "}"
    raise ValueError(f"no spec syntax for {t!r}")


@dataclass
class Fn:
    module: str
    name: str
    params: tuple  # generator types; ANY for an untyped function
    result: object  # ANY for an untyped function

    def call_name(self, from_module: str) -> str:
        return self.name if self.module == from_module else f"{self.module}.{self.name}"


@dataclass
class Corpus:
    """Generated sources with their answer key."""

    files: dict[str, str]  # file name -> source text
    codes: dict[str, Counter]  # file name -> expected diagnostic codes
    format: str  # the `--format` the workload checks with

    @property
    def exit_status(self) -> int:
        """The status `extc check` must exit with over the whole corpus."""
        return max((file_status(c) for c in self.codes.values()), default=0)

    @property
    def source_bytes(self) -> int:
        return sum(len(text.encode()) for text in self.files.values())

    def write(self, directory) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text)


def file_status(codes: Counter) -> int:
    """Exit status of checking one file that reports `codes`."""
    if codes["E_LEX"] or codes["E_PARSE"]:
        return 2
    return 1 if any(code.startswith("E_") for code in codes.elements()) else 0


# --- hand-written error templates --------------------------------------------
#
# Each mirrors one listing of the paper corpus (`tests/corpus/<corpus>`) inside
# a typed function, and reports that listing's code, as recorded in the corpus
# expectations. `{f}` is the function's unique name; the clause is aborted at
# the planted error, so each template reports exactly one code.

@dataclass(frozen=True)
class ErrorTemplate:
    corpus: str
    code: str
    text: str


ERROR_TEMPLATES = (
    ErrorTemplate("wrong_plus.ex", "E_TYPE_MISMATCH", """\
@spec {f}(integer) :: integer
def {f}(n) do
  step = n + 1
  step + "hi"
end"""),
    ErrorTemplate("err_cmp_mult.ex", "E_TYPE_MISMATCH", """\
@spec {f}(integer) :: integer
def {f}(n) do
  (n > 5.0) * 3
end"""),
    ErrorTemplate("err_func_float.ex", "E_TYPE_MISMATCH", """\
@spec {f}_scale(integer) :: float
def {f}_scale(x) do x * 42.0 end
@spec {f}(integer) :: float
def {f}(n) do
  {f}_scale(n + 0.5)
end"""),
    ErrorTemplate("err_func_string.ex", "E_TYPE_MISMATCH", """\
@spec {f}_scale(integer) :: float
def {f}_scale(x) do x * 42.0 end
@spec {f}(integer) :: float
def {f}(n) do
  {f}_scale("2")
end"""),
    ErrorTemplate("err_list_bool.ex", "E_TYPE_MISMATCH", """\
@spec {f}(integer) :: boolean
def {f}(n) do
  xs = [n | []]
  ys = [2.0 | xs]
  [z | _] = ys
  z and true
end"""),
    ErrorTemplate("err_tuple_destructure.ex", "E_PATTERN_TYPE", """\
@spec {f}(integer) :: integer
def {f}(n) do
  xs = [n | []]
  {a, b} = xs
  a
end"""),
    ErrorTemplate("err_map_plus.ex", "E_TYPE_MISMATCH", """\
@spec {f}(integer) :: integer
def {f}(n) do
  m = %{:strange => "hello", 9 => true}
  m[:strange] + n
end"""),
    ErrorTemplate("err_map_key.ex", "E_UNKNOWN_KEY", """\
@spec {f}(integer) :: boolean
def {f}(n) do
  m = %{:strange => "hello", 9 => true}
  m[10]
end"""),
    ErrorTemplate("err_nonlinear.ex", "E_NONLINEAR_MISMATCH", """\
@spec {f}(integer, string) :: integer
def {f}(x, x) do x end"""),
    ErrorTemplate("err_unbound_sibling.ex", "E_UNBOUND_VAR", """\
@spec {f}(integer) :: integer
def {f}(n) do
  (fresh = n) + fresh
end"""),
    ErrorTemplate("err_dup_spec.ex", "E_DUP_SPEC", """\
@spec {f}(integer) :: float
@spec {f}(integer) :: integer
def {f}(x) do x * 42.0 end"""),
)


# --- expression and statement generation ---------------------------------------

class _Names:
    """Unique identifiers drawn from a word list."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, parts: int = 2) -> str:
        while True:
            name = "_".join(self.rng.choice(_WORDS) for _ in range(parts))
            name = f"{name}_{len(self.used)}"
            if name not in self.used:
                self.used.add(name)
                return name

    def module(self, index: int) -> str:
        return f"{self.rng.choice(_MODULE_WORDS)}{index}"


def _indent(lines: list[str], by: str = "  ") -> list[str]:
    return [by + line if line else line for line in lines]


class _Body:
    """Writes one function body, tracking the type of every visible binding.

    Every expression written for type `t` synthesizes `t`, or `any` when it
    reads an untyped value; `expr` returns which. An `integer` written as
    `exact` never reads `any`, because `any op any` synthesizes `float`.
    """

    def __init__(self, rng: random.Random, module: str, fns: list[Fn],
                 env: dict, untyped: list[Fn] = (), record_keys: _Deck | None = None,
                 depth: int = 3):
        self.rng = rng
        self.depth = depth
        self.module = module
        self.fns = fns
        self.untyped = list(untyped)
        self.env = dict(env)
        self.record_keys = record_keys or _Deck(rng, range(2, 6))
        self.counter = 0

    # -- names and lookups --

    def local(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def var_of(self, t, exact: bool) -> str | None:
        names = [n for n, vt in self.env.items() if vt == t or (vt == ANY and not exact)]
        return self.rng.choice(names) if names else None

    def field_of(self, t, exact: bool) -> tuple[str, object] | None:
        fields = [(f"{n}[{k}]", ft) for n, vt in self.env.items()
                  if isinstance(vt, tuple) and vt[0] == "map"
                  for k, ft in vt[1] if ft == t or (ft == ANY and not exact)]
        return self.rng.choice(fields) if fields else None

    def closure_of(self, t) -> tuple[str, int] | None:
        fns = [(n, vt[1]) for n, vt in self.env.items()
               if isinstance(vt, tuple) and vt[0] == "fn" and vt[2] == t]
        return self.rng.choice(fns) if fns else None

    def fn_returning(self, t) -> Fn | None:
        fns = [f for f in self.fns if f.result == t]
        return self.rng.choice(fns) if fns else None

    # -- expressions --

    def operand(self, t, depth: int, exact: bool = False) -> str:
        text, atomic, _ = self.expr(t, depth, exact)
        return text if atomic else f"({text})"

    def text(self, t, depth: int | None = None, exact: bool = False) -> str:
        return self.expr(t, depth, exact)[0]

    def call(self, fn: Fn, depth: int) -> str:
        args = ", ".join(self.text(p if p != ANY else INT, depth) for p in fn.params)
        return f"{fn.call_name(self.module)}({args})"

    def literal(self, t, depth: int) -> str:
        """A literal of exactly type `t`."""
        r = self.rng
        if t in (INT, ANY):
            return str(r.randint(0, 999))
        if t == FLT:
            return f"{r.randint(0, 99)}.{r.randint(0, 99):02d}"
        if t == BOOL:
            return r.choice(("true", "false"))
        if t == STR:
            return f'"{r.choice(_WORDS)}"'
        kind = t[0]
        if kind == "list":
            text = "[]"
            for _ in range(r.randint(1, 6)):
                text = f"[{self.text(t[1], depth - 1, True)} | {text}]"
            return text
        if kind == "tuple":
            return "{" + ", ".join(self.text(i, depth - 1, True) for i in t[1]) + "}"
        raise ValueError(f"no literal for {t!r}")

    def expr(self, t, depth: int | None = None,
             exact: bool = False) -> tuple[str, bool, object]:
        """Source text of an expression of type `t`, whether it needs no
        parentheses as an operand, and the type it synthesizes (`t` or `any`)."""
        r = self.rng
        depth = self.depth if depth is None else min(depth, self.depth)
        if depth <= 0 or r.random() < 0.25:
            var = self.var_of(t, exact)
            if var is not None and r.random() < 0.7:
                return var, True, self.env[var]
            return self.literal(t, depth), True, t
        roll = r.random()
        if roll < 0.2:
            fn = self.fn_returning(t)
            if fn is not None:
                return self.call(fn, depth - 1), True, t
        elif roll < 0.3:
            if self.untyped and not exact:
                return self.call(r.choice(self.untyped), depth - 1), True, ANY
        elif roll < 0.4:
            access = self.field_of(t, exact)
            if access is not None:
                return access[0], True, access[1]
        elif roll < 0.45:
            closure = self.closure_of(t)
            if closure is not None:
                name, arity = closure
                args = ", ".join(self.text(INT, depth - 1) for _ in range(arity))
                return f"{name}.({args})", True, t
        d = depth - 1
        if t == INT:
            op = r.choice("+-*")
            return f"{self.operand(INT, d, exact)} {op} {self.operand(INT, d, True)}", False, INT
        if t == FLT:
            if r.random() < 0.5:
                return f"{self.operand(INT, d, exact)} / {self.operand(FLT, d, exact)}", False, FLT
            return f"{self.operand(FLT, d, exact)} + {self.operand(INT, d, True)}", False, FLT
        if t == BOOL:
            roll = r.random()
            if roll < 0.5:
                op = r.choice(("<", ">", "<=", ">=", "==", "!="))
                return f"{self.operand(INT, d)} {op} {self.operand(INT, d)}", False, BOOL
            if roll < 0.8:
                op = r.choice(("and", "or"))
                return f"{self.operand(BOOL, d)} {op} {self.operand(BOOL, d)}", False, BOOL
            return f"not {self.operand(BOOL, d)}", False, BOOL
        if t == STR:
            return f"{self.operand(STR, d)} <> {self.operand(STR, d)}", False, STR
        if isinstance(t, tuple) and t[0] == "list":
            other = self.var_of(t, exact)
            if other is not None and r.random() < 0.5:
                return f"{self.operand(t, d, True)} ++ {other}", False, t
            return f"[{self.text(t[1], d, True)} | {self.operand(t, d, exact)}]", True, t
        return self.literal(t, depth), True, t

    # -- statements --

    _BIND_TYPES = (INT, INT, FLT, BOOL, STR, INT_LIST, STR_LIST, PAIR)

    def statements(self, count: int, kinds: _Deck) -> list[str]:
        """`count` statements of kinds drawn from the deck."""
        lines = []
        for _ in range(count):
            lines += getattr(self, "stmt_" + kinds.draw())()
        return lines

    def stmt_bind(self) -> list[str]:
        t = self.rng.choice(self._BIND_TYPES)
        name = self.local(self.rng.choice(_WORDS))
        text, _, actual = self.expr(t)
        self.env[name] = actual
        return [f"{name} = {text}"]

    def _branch(self, t, binds: dict) -> tuple[list[str], object]:
        """A branch body of type `t` seeing `binds`; its bindings stay local."""
        saved = dict(self.env)
        self.env.update(binds)
        lines = []
        if self.rng.random() < 0.4:
            tmp = self.local("tmp")
            text, _, actual = self.expr(t, 2)
            lines.append(f"{tmp} = {text}")
            self.env[tmp] = actual
        text, _, actual = self.expr(t, 2)
        self.env = saved
        return [*lines, text], actual

    def stmt_if(self) -> list[str]:
        t = self.rng.choice((INT, FLT, STR, BOOL))
        name = self.local("picked")
        cond = self.text(BOOL)
        then, then_t = self._branch(t, {})
        orelse, else_t = self._branch(t, {})
        self.env[name] = ANY if then_t == else_t == ANY else t
        return [f"{name} = if {cond} do", *_indent(then), "else", *_indent(orelse), "end"]

    def stmt_case(self) -> list[str]:
        tagged = [n for n, vt in self.env.items() if vt == TAGGED]
        fn = self.fn_returning(TAGGED)
        name = self.local("outcome")
        if tagged or fn is not None:
            subject = self.rng.choice(tagged) if tagged else self.call(fn, 2)
            hit = self.local("got")
            first, first_t = self._branch(INT, {hit: INT})
            second, second_t = self._branch(INT, {})
            clauses = [(f"{{:ok, {hit}}}", first), ("{:error, _}", second)]
            result = INT
        else:
            pairs = [n for n, vt in self.env.items() if vt == PAIR]
            subject = self.rng.choice(pairs) if pairs else self.literal(PAIR, 2)
            label = self.local("label")
            first, first_t = self._branch(STR, {label: STR})
            second, second_t = self._branch(STR, {label: STR})
            clauses = [(f"{{0, {label}}}", first), (f"{{_, {label}}}", second)]
            result = STR
        lines = [f"{name} = case {subject} do"]
        for pattern, body in clauses:
            lines.append(f"  {pattern} ->")
            lines.extend(_indent(body, "    "))
        lines.append("end")
        self.env[name] = ANY if first_t == second_t == ANY else result
        return lines

    def stmt_destructure(self) -> list[str]:
        r = self.rng
        options = [(n, vt) for n, vt in self.env.items()
                   if vt in (PAIR, INT_LIST, STR_LIST)
                   or (isinstance(vt, tuple) and vt[0] == "map")]
        if not options:
            return self.stmt_bind()
        name, t = r.choice(options)
        if t == PAIR:
            a, b = self.local("num"), self.local("text")
            self.env.update({a: INT, b: STR})
            return [f"{{{a}, {b}}} = {name}"]
        if t[0] == "list":
            head, rest = self.local("head"), self.local("rest")
            self.env.update({head: t[1], rest: t})
            return [f"[{head} | {rest}] = {name}"]
        parts = []
        for key, ft in r.sample(t[1], min(len(t[1]), r.randint(1, 3))):
            var = self.local("part")
            self.env[var] = ft
            parts.append(f"{key} => {var}")
        return ["%{" + ", ".join(parts) + "} = " + name]

    def stmt_closure(self) -> list[str]:
        name = self.local("step")
        if self.rng.random() < 0.5:
            line = f"{name} = fn (x) -> x * {self.operand(INT, 1, True)} end"
            self.env[name] = ("fn", 1, INT)
            return [line]
        self.env[name] = ("fn", 2, BOOL)
        return [f"{name} = fn (a, b) -> a < b end"]

    def stmt_record(self) -> list[str]:
        r = self.rng
        keys = r.sample(_WORDS, self.record_keys.draw())
        name = self.local("rec")
        lines = [f"{name} = %{{"]
        entries = []
        for i, key in enumerate(keys):
            text, _, actual = self.expr(r.choice((INT, FLT, STR, BOOL)), 2)
            entries.append((f":{key}", actual))
            lines.append(f"  :{key} => {text}" + ("," if i < len(keys) - 1 else ""))
        lines.append("}")
        self.env[name] = ("map", tuple(entries))
        return lines


# --- functions, modules, corpora ----------------------------------------------

_PARAM_TYPES = (INT, INT, FLT, STR, BOOL, INT_LIST, PAIR)
_RESULT_TYPES = (INT, INT, FLT, STR, BOOL, TAGGED, INT_LIST, PAIR)

# Statement kinds and their weights.
_LEGACY_KINDS = (("bind", 12), ("if", 2), ("case", 2), ("destructure", 2),
                 ("closure", 1), ("record", 1))
_DENSE_KINDS = (("bind", 24), ("if", 4), ("case", 4), ("destructure", 4),
                ("closure", 1), ("record", 1))


class _Signatures:
    """Deals `@spec` shapes from a deck that holds each result type once, with
    one to three parameters; the parameter types cycle. The mix of
    signatures, which sets the size of every call, is then the same for all
    seeds whenever the deck is dealt out whole."""

    def __init__(self, rng: random.Random):
        self.shapes = _Deck(rng, [(1 + i % 3, result) for i, result in enumerate(_RESULT_TYPES)])
        self.params = itertools.cycle(_PARAM_TYPES)

    def deal(self, module: str, name: str) -> Fn:
        arity, result = self.shapes.draw()
        return Fn(module, name, tuple(itertools.islice(self.params, arity)), result)


class _Deck:
    """Deals `values`, each once per round, in seeded order. Drawing from a
    deck shared by a whole corpus fixes the corpus's mix and leaves only the
    order to the seed."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _kinds(rng, weights) -> _Deck:
    return _Deck(rng, [kind for kind, weight in weights for _ in range(weight)])


def _typed_function(rng, names, sig: Fn, fns: list[Fn], statements: int, kinds,
                    untyped=(), record_keys: _Deck | None = None, depth=3) -> list[str]:
    """The `@spec` and `def` of `sig`: `statements` statements that check."""
    param_names = [names.fresh(1) for _ in sig.params]
    body = _Body(rng, sig.module, fns, dict(zip(param_names, sig.params)), untyped,
                 record_keys, depth)
    lines = body.statements(statements, kinds)
    if sig.result == TAGGED:
        lines += [f"if {body.text(BOOL)} do", f"  {{:ok, {body.text(INT)}}}", "else",
                  f"  {{:error, {body.text(INT)}}}", "end"]
    else:
        lines.append(body.text(sig.result))
    params = ", ".join(spec_text(t) for t in sig.params)
    return [f"@spec {sig.name}({params}) :: {spec_text(sig.result)}",
            f"def {sig.name}({', '.join(param_names)}) do", *_indent(lines), "end"]


def _recursive_function(sig: Fn) -> list[str]:
    """A two-clause typed accumulator loop that calls itself."""
    f = sig.name
    return [f"@spec {f}(integer, integer) :: integer",
            f"def {f}(0, acc) do acc end",
            f"def {f}(n, acc) do",
            f"  {f}(n - 1, acc + n)",
            "end"]


def _untyped_function(rng, names, module, fns, untyped, statements, kinds: _Deck,
                      base_clause: bool) -> tuple[list[str], Fn]:
    """A function with no `@spec`, optionally with a literal base clause first."""
    arity = rng.randint(1, 3)
    sig = Fn(module, names.fresh(), (ANY,) * arity, ANY)
    params = [names.fresh(1) for _ in range(arity)]
    body = _Body(rng, module, fns, dict.fromkeys(params, ANY), [*untyped, sig], depth=2)
    lines = []
    if base_clause:
        rest = "".join(", " + p for p in params[1:])
        lines.append(f"def {sig.name}(0{rest}) do {body.literal(INT, 1)} end")
    inner = body.statements(statements, kinds)
    inner.append(body.text(INT))
    lines += [f"def {sig.name}({', '.join(params)}) do", *_indent(inner), "end"]
    return lines, sig


def _any_function(rng, names, module, untyped, statements, kinds: _Deck) -> list[str]:
    """A function whose `@spec` is all `any`: checked, but every value is unknown."""
    arity = rng.randint(1, 2)
    name = names.fresh()
    params = [names.fresh(1) for _ in range(arity)]
    body = _Body(rng, module, [], dict.fromkeys(params, ANY), untyped)
    inner = body.statements(statements, kinds)
    inner.append(body.text(INT))
    spec = f"@spec {name}({', '.join(['any'] * arity)}) :: any"
    return [spec, f"def {name}({', '.join(params)}) do", *_indent(inner), "end"]


def _planted_error(rng, names) -> tuple[list[str], str]:
    template = rng.choice(ERROR_TEMPLATES)
    return template.text.replace("{f}", names.fresh()).splitlines(), template.code


def _module_text(name: str, chunks: list[list[str]]) -> str:
    lines = [f"defmodule {name} do"]
    for i, chunk in enumerate(chunks):
        if i:
            lines.append("")
        lines.extend(_indent(chunk))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _pad(rng, text: str, size: int) -> str:
    """`text` followed by comment lines that bring it to `size` bytes, when
    it is shorter."""
    lines = []
    missing = size - len(text.encode())
    while missing > 0:
        words = []
        while sum(len(w) + 1 for w in words) < min(72, missing - 3):
            words.append(rng.choice(_WORDS))
        line = ("# " + " ".join(words))[:missing - 1]
        lines.append(line)
        missing -= len(line) + 1
    return text + "".join(line + "\n" for line in lines)


def _fixed_order(values: list) -> list:
    """`values` in one mixed order that no seed changes. Where a file or a
    function sits in the corpus decides what is alive when it is parsed, and
    so the peak memory of the run."""
    random.Random(len(values)).shuffle(values)
    return values


def _spread(count: int, lo: float, hi: float) -> list[int]:
    """`count` evenly spaced whole numbers from lo to hi."""
    return _fixed_order([round(lo + (hi - lo) * i / max(1, count - 1)) for i in range(count)])


def _file_name(index: int, module: str) -> str:
    return f"{index:02d}_{module.lower()}.ex"  # sorted as generated


_DENSE_MODULES = 8  # each with one long typed function
_DENSE_PLANTED = 4  # modules that get one planted error


def dense_bodies(seed: int) -> Corpus:
    """Long typed functions (100-300 statements) with big map records.

    Each module holds a recursive loop and one long function. Every signature
    exists before any body is written, so each body can call any function of
    the corpus and the pool of callees is the same for every seed."""
    rng = random.Random(seed)
    names = _Names(rng)
    sigs = _Signatures(rng)
    plan = []
    for index in range(_DENSE_MODULES):
        module = names.module(index)
        loop = Fn(module, names.fresh(), (INT, INT), INT)
        plan.append((module, loop, sigs.deal(module, names.fresh())))
    fns = [fn for _, loop, sig in plan for fn in (loop, sig)]
    lengths = _spread(_DENSE_MODULES, 100, 300)
    kinds = _kinds(rng, _DENSE_KINDS)
    record_keys = _Deck(rng, range(16, 49))
    files, codes = {}, {}
    for index, (module, loop, sig) in enumerate(plan):
        chunks = [_recursive_function(loop),
                  _typed_function(rng, names, sig, fns, lengths.pop(), kinds,
                                  record_keys=record_keys, depth=2)]
        name = _file_name(index, module)
        files[name] = _module_text(module, chunks)
        codes[name] = Counter()
    for index in rng.sample(range(_DENSE_MODULES), _DENSE_PLANTED):
        name = _file_name(index, plan[index][0])
        chunk, code = _planted_error(rng, names)
        files[name] = files[name][:-len("end\n")] + "\n".join(_indent(["", *chunk])) + "\nend\n"
        codes[name][code] += 1
    return Corpus(files, codes, "json")


def _pareto_sizes(count: int, largest: float) -> list[float]:
    """The `count` mid-quantiles of a Pareto(1) law scaled so the largest is
    `largest`. Quantiles rather than draws: rendering time grows with the
    square of the largest file, so free draws would make the cost depend on
    the seed."""
    raw = [1 / (1 - (i + 0.5) / count) for i in range(count)]
    return _fixed_order([largest * x / max(raw) for x in raw])


# Mean source bytes of one legacy block of five functions, measured over seeds.
# A file gets the block count that fills 92 % of its target size, and a
# trailing comment pads it to the exact size: rendering time grows with the
# number of diagnostics times the size of their file, so both are fixed.
_LEGACY_BLOCK_BYTES = 730
_LEGACY_FILL = 0.92
_LEGACY_FILES = 20
_LEGACY_LARGEST = 150_000
_LEGACY_PLANTED = 12  # files that get one planted error


def legacy_migration(seed: int) -> Corpus:
    """20 half-migrated files, Pareto-sized up to about 150 KB.

    Functions come in blocks of five: one with a `@spec` (half of those all
    `any`) and four without, one of which has a literal base clause, so every
    block reports `I_UNTYPED_DEF` five times. Twelve files get one error.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    sigs = _Signatures(rng)
    kinds = _kinds(rng, _LEGACY_KINDS)
    sizes = _pareto_sizes(_LEGACY_FILES, _LEGACY_LARGEST)
    error_files = set(rng.sample(range(len(sizes)), _LEGACY_PLANTED))
    typed: list[Fn] = []
    untyped: list[Fn] = []
    files, codes = {}, {}
    for index, target in enumerate(sizes):
        module = names.module(index)
        counts: Counter = Counter()
        chunks = []
        if index in error_files:
            chunk, code = _planted_error(rng, names)
            chunks.append(chunk)
            counts[code] += 1
        for _ in range(max(1, round(_LEGACY_FILL * target / _LEGACY_BLOCK_BYTES))):
            block = ["typed", "untyped", "untyped", "untyped", "base"]
            lengths = [0, 0, 0, 0]
            rng.shuffle(block)
            rng.shuffle(lengths)
            for kind in block:
                if kind == "typed" and rng.random() < 0.5:
                    chunks.append(_any_function(rng, names, module, untyped,
                                                rng.randint(0, 2), kinds))
                elif kind == "typed":
                    sig = sigs.deal(module, names.fresh())
                    typed.append(sig)
                    chunks.append(_typed_function(rng, names, sig, typed, rng.randint(0, 2),
                                                  kinds, untyped=untyped))
                else:
                    chunk, sig = _untyped_function(rng, names, module, typed, untyped,
                                                   lengths.pop(), kinds, kind == "base")
                    untyped.append(sig)
                    counts[UNTYPED] += 2 if kind == "base" else 1
                    chunks.append(chunk)
        name = _file_name(index, module)
        files[name] = _pad(rng, _module_text(module, chunks), round(target))
        codes[name] = counts
    return Corpus(files, codes, "text")


WORKLOADS = {
    "legacy_migration": legacy_migration,
    "dense_bodies": dense_bodies,
}


def _cons_list(length: int) -> str:
    text = "[]"
    for i in reversed(range(length)):
        text = f"[{i} | {text}]"
    return text


# Robustness probes, each checked in its own process. They sit outside the
# generator's distributions on purpose: deep nesting and bad bytes are what a
# user's file can hold, and a crash on them is counted, not avoided.
PROBES = {
    "cons_100.ex": f"xs = {_cons_list(100)}\n".encode(),
    "cons_1000.ex": f"xs = {_cons_list(1000)}\n".encode(),
    "parens_100.ex": ("x = " + "(" * 100 + "1" + ")" * 100 + "\n").encode(),
    "latin1.ex": 'name = "caf\xe9"\n'.encode("latin-1"),
}
