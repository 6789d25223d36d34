"""Generator of deep-perception domains: few goals, many belief branches.

Each of ``k`` objects is seen by ``detect``, which needs the light on and
can leave the object seen, unseen (``seen(o) = F``) or still unknown, and an
unseen object can be looked at again with ``relook``.  The goal is every
``seen(o) = S`` with probability 0.5.  Every detect splits the belief three
ways, so the final simulation's entries grow with ``k`` unless latches that
can no longer matter are dropped: the opposite of the wide domains, where
the tree grows and the belief stays small.

Usage: python tests/deepgen.py [K]
"""

from __future__ import annotations

import sys

GOAL_PROBABILITY = 0.5


def generate(k: int) -> str:
    """Domain text for ``k`` objects."""
    objects = " ".join(f"o{i}" for i in range(k))
    seen = " ; ".join(f"seen(o{i}) = R" for i in range(k))
    goal = " ; ".join(f"seen(o{i}) = S" for i in range(k))
    return f"""\
param object {{ {objects} }}

condition seen(object) values {{ S F R }}
condition lit values {{ S F }}

action detect(object) {{
  pre {{ lit = S ; seen(object) = R }}
  outcome 0.6 -> S {{ seen(object) = S }}
  outcome 0.3 -> F {{ seen(object) = F }}
  outcome 0.1 -> F {{ }}
}}

action relook(object) {{
  pre {{ seen(object) = F }}
  outcome 0.5 -> S {{ seen(object) = S }}
  outcome 0.5 -> F {{ }}
}}

action light_on {{
  pre {{ }}
  outcome 1 -> S {{ lit = S }}
}}

initial {{ {seen} ; lit = F }}
goal {{ {goal} }} prob {GOAL_PROBABILITY}
"""


if __name__ == "__main__":
    print(generate(int(sys.argv[1]) if len(sys.argv) > 1 else 5), end="")
