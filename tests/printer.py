"""Source text for an AST, for the parse -> print -> parse round-trip test.

Every operand of an expression is parenthesised, so the text parses back to
an equal AST without a precedence table. A pattern is stored as the
expression it is written as, but admits no parentheses: `pattern_source`
prints the node in each of the four pattern positions bare.
"""
from extc import syntax as s
from extc.envs import qualify


def _items(nodes, render) -> str:
    return ", ".join(render(n) for n in nodes)


def _paren(node) -> str:
    return f"({source(node)})"


def pattern_source(node) -> str:
    match node:
        case s.TupleExpr(items):
            return "{" + _items(items, pattern_source) + "}"
        case s.ConsExpr(head, tail):
            return f"[{pattern_source(head)} | {pattern_source(tail)}]"
        case s.MapExpr(entries):
            return "%{" + ", ".join(f"{k} => {pattern_source(p)}" for k, p in entries) + "}"
    return source(node)


def source(node) -> str:
    match node:
        case s.IntLit(value):
            return str(value)
        case s.FloatLit(value):
            text = repr(value)
            return text if "." in text or "e" in text else text + ".0"
        case s.StringLit(value):
            for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\t", "\\t")):
                value = value.replace(raw, escaped)
            return f'"{value}"'
        case s.BoolLit(value):
            return "true" if value else "false"
        case s.AtomLit(name):
            return f":{name}"
        case s.Wildcard():
            return "_"
        case s.Var(name):
            return name
        case s.PinPattern(name):
            return f"^{name}"
        case s.ElistExpr():
            return "[]"
        case s.TupleExpr(items):
            return "{" + _items(items, _paren) + "}"
        case s.ConsExpr(head, tail):
            return f"[{_paren(head)} | {_paren(tail)}]"
        case s.MapExpr(entries):
            return "%{" + ", ".join(f"{k} => {_paren(e)}" for k, e in entries) + "}"
        case s.MapAccess(subject, key):
            return f"{_paren(subject)}[{key}]"
        case s.BinOp(op, left, right):
            return f"{_paren(left)} {op} {_paren(right)}"
        case s.UnaryOp(op, operand):
            return f"{op}{' ' if op == 'not' else ''}{_paren(operand)}"
        case s.If(cond, then, orelse):
            return f"if {_paren(cond)} do {source(then)} else {source(orelse)} end"
        case s.CaseClause(pattern, body):
            return f"{pattern_source(pattern)} -> {source(body)}"
        case s.Case(subject, clauses):
            return f"case {_paren(subject)} do {'; '.join(map(source, clauses))} end"
        case s.CondClause(cond, body):
            return f"{_paren(cond)} -> {source(body)}"
        case s.Cond(clauses):
            return f"cond do {'; '.join(map(source, clauses))} end"
        case s.Call(qualifier, name, args):
            return f"{qualify(qualifier, name)}({_items(args, _paren)})"
        case s.VarCall(name, args):
            return f"{name}.({_items(args, _paren)})"
        case s.AnonFn(params, body):
            return f"fn ({_items(params, pattern_source)}) -> {source(body)} end"
        case s.Match(pattern, value):
            return f"{pattern_source(pattern)} = {_paren(value)}"
        case s.Block(exprs):
            # A statement that is a `Block` itself was a parenthesised group.
            return "; ".join(_paren(e) if type(e) is s.Block else source(e) for e in exprs)
        case s.SpecDecl(name, params, result):
            return f"@spec {name}({_items(params, str)}) :: {result}"
        case s.FunctionDef(name, params, body):
            return f"def {name}({_items(params, pattern_source)}) do {source(body)} end"
        case s.ModuleDef(name, body):
            return f"defmodule {name} do {'; '.join(map(source, body))} end"
        case s.Program(items):
            return "\n".join(map(source, items))
    raise TypeError(f"not an AST node: {node!r}")
