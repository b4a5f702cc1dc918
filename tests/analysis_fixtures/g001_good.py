"""G001 fixes: module-level recursion or an explicit stack; and nested
functions that merely share a name with something else stay clean."""


def _explain_node(plan, node, depth, lines):
    lines.append("  " * depth + node.label)
    for child in plan.children(node):
        _explain_node(plan, child, depth + 1, lines)


def explain(plan):
    lines = []
    _explain_node(plan, plan.root, 0, lines)
    return lines


def labels(plan):
    out = []
    stack = [plan.root]
    while stack:
        node = stack.pop()
        out.append(node.label)
        stack.extend(plan.children(node))
    return out


def wrapper(function):
    def traced(*args):
        return function(*args)

    return traced


def shadowing(items):
    def visit(visit):
        # The parameter shadows the enclosing binding: no closure cell.
        return visit(items)

    return visit(len)
