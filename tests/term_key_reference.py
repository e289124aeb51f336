"""The uncached sort key, kept as a test oracle for ``cutcheck.terms.term_key``.

This is the walk ``term_key`` made before it cached the keys of ground
compounds: it builds every key from the leaves up on each call, with its own
stack, and stores nothing on the term.
"""

from cutcheck.terms import Var


def uncached_term_key(t):
    """Deterministic sort key: by depth, then functor, then arguments."""
    frames: list = []  # per compound whose key is being built: (term, argument keys)
    while True:
        if t.__class__ is Var:
            key = (0, 0, t.name, ())
        elif t.args:
            frames.append((t, []))
            t = t.args[0]
            continue
        else:
            key = (0, 1, t.functor, ())
        while frames:
            term, keys = frames[-1]
            keys.append(key)
            if len(keys) < len(term.args):
                t = term.args[len(keys)]
                break
            frames.pop()
            key = (1 + max([k[0] for k in keys]), 1, term.functor, tuple(keys))
        else:
            return key
