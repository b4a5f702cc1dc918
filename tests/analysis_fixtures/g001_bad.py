"""G001: nested functions that refer to themselves, a cycle per call."""


def explain(plan):
    lines = []

    def visit(node, depth):
        lines.append("  " * depth + node.label)
        for child in plan.children(node):
            visit(child, depth + 1)

    visit(plan.root, 0)
    return lines


def extract(plan):
    def build(node):
        return [operation(child) for child in plan.children(node)]

    def operation(node):
        return (node, build(node))

    return build(plan.root)
