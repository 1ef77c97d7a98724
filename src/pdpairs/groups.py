"""Group oracles and the integral group ring.

A group is modelled by a normal-form oracle: every element has a unique
canonical key, and the model knows how to multiply, invert and enumerate.
No word problem is solved generically; each builtin family carries its own
normal form.  An orientation character (a homomorphism to Z/2) is stored on
the model and drives the twisted involution on the group ring.

Element keys are plain hashable Python values (ints, tuples); RingElem is a
finite integer combination of keys.
"""

from __future__ import annotations

import random


class GroupError(ValueError):
    """Raised for malformed group data or cross-model operations."""


class GroupModel:
    """Base class for group oracles.

    Subclasses define the canonical key format and the core operations.
    Keys from different models must never be mixed; RingElem enforces this.
    """

    kind = "group"
    # whether the key of g^n grows with n, as a reduced word's does
    keys_grow_with_power = False

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def omega(self, a) -> int:
        """Orientation character, valued in {0, 1}."""
        raise NotImplementedError

    def letters(self):
        """Generators and their inverses, as keys.  Used for ball search."""
        raise NotImplementedError

    def named_generators(self):
        """The standard generators as (name, key) pairs, in presentation
        order: the names words may use, and the g with g - 1 generating the
        augmentation ideal."""
        raise NotImplementedError

    def format_elem(self, a) -> str:
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def elements(self):
        raise GroupError(f"{self.kind}: not a finite model")

    def word_length(self, a) -> int:
        raise NotImplementedError

    def sort_key(self, a):
        return (self.word_length(a), self.format_elem(a))

    def ball(self, radius: int):
        """All elements of word length <= radius, deterministically ordered.

        Finite models return the whole group regardless of radius.
        """
        if self.is_finite():
            return sorted(self.elements(), key=self.sort_key)
        seen = {self.identity()}
        frontier = [self.identity()]
        for _ in range(radius):
            step = []
            for w in frontier:
                for l in self.letters():
                    p = self.mul(w, l)
                    if p not in seen:
                        seen.add(p)
                        step.append(p)
            frontier = step
        return sorted(seen, key=self.sort_key)

    def one(self):
        return RingElem(self, {self.identity(): 1})

    def zero(self):
        return RingElem(self, {})

    def unit(self, key, coeff: int = 1):
        return RingElem(self, {key: coeff} if coeff else {})

    def from_int(self, n: int):
        return RingElem(self, {self.identity(): n} if n else {})

    def sample_elements(self, count: int, radius: int = 3, seed: int = 0):
        """Deterministic sample of elements for law checking."""
        pool = self.ball(radius)
        rng = random.Random(seed)
        return [pool[rng.randrange(len(pool))] for _ in range(count)]


class TrivialGroup(GroupModel):
    kind = "trivial"

    def identity(self):
        return ()

    def mul(self, a, b):
        return ()

    def inv(self, a):
        return ()

    def omega(self, a):
        return 0

    def letters(self):
        return []

    def named_generators(self):
        return []

    def format_elem(self, a):
        return "1"

    def is_finite(self):
        return True

    def elements(self):
        return [()]

    def word_length(self, a):
        return 0

    def __eq__(self, other):
        return isinstance(other, TrivialGroup)

    def __hash__(self):
        return hash("trivial")

    def __repr__(self):
        return "TrivialGroup()"


class InfiniteCyclic(GroupModel):
    """Z written multiplicatively; keys are integer exponents."""

    kind = "cyclic-infinite"

    def __init__(self, gen_name: str = "t", omega_gen: int = 0):
        self.gen_name = gen_name
        self.omega_gen = omega_gen % 2

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def omega(self, a):
        return (a * self.omega_gen) % 2

    def letters(self):
        return [1, -1]

    def named_generators(self):
        return [(self.gen_name, 1)]

    def format_elem(self, a):
        if a == 0:
            return "1"
        if a == 1:
            return self.gen_name
        return f"{self.gen_name}^{a}"

    def word_length(self, a):
        return abs(a)

    def __eq__(self, other):
        return (isinstance(other, InfiniteCyclic)
                and other.gen_name == self.gen_name
                and other.omega_gen == self.omega_gen)

    def __hash__(self):
        return hash(("ic", self.gen_name, self.omega_gen))

    def __repr__(self):
        return f"InfiniteCyclic({self.gen_name!r}, omega={self.omega_gen})"


class FreeAbelian(GroupModel):
    """Z^r; keys are integer tuples.  Covers genus-1 surface groups."""

    kind = "free-abelian"

    def __init__(self, gen_names, omega_gens=None):
        self.gen_names = tuple(gen_names)
        self.rank = len(self.gen_names)
        self.omega_gens = tuple(omega_gens or [0] * self.rank)
        if len(self.omega_gens) != self.rank:
            raise GroupError("free-abelian: omega length mismatch")

    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def omega(self, a):
        return sum(x * w for x, w in zip(a, self.omega_gens)) % 2

    def letters(self):
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            out.append(tuple(e))
            e[i] = -1
            out.append(tuple(e))
        return out

    def named_generators(self):
        return list(zip(self.gen_names, self.letters()[::2]))

    def format_elem(self, a):
        parts = []
        for name, x in zip(self.gen_names, a):
            if x == 0:
                continue
            parts.append(name if x == 1 else f"{name}^{x}")
        return "*".join(parts) if parts else "1"

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def __eq__(self, other):
        return (isinstance(other, FreeAbelian)
                and other.gen_names == self.gen_names
                and other.omega_gens == self.omega_gens)

    def __hash__(self):
        return hash(("fa", self.gen_names, self.omega_gens))

    def __repr__(self):
        return f"FreeAbelian({self.gen_names!r})"


class FreeGroup(GroupModel):
    """Free group; keys are reduced words, tuples of (gen_index, +-1)."""

    kind = "free"
    keys_grow_with_power = True

    def __init__(self, gen_names, omega_gens=None):
        self.gen_names = tuple(gen_names)
        self.rank = len(self.gen_names)
        self.omega_gens = tuple(omega_gens or [0] * self.rank)
        if len(self.omega_gens) != self.rank:
            raise GroupError("free: omega length mismatch")

    def identity(self):
        return ()

    def mul(self, a, b):
        word = list(a)
        for letter in b:
            if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def inv(self, a):
        return tuple((i, -e) for i, e in reversed(a))

    def omega(self, a):
        return sum(self.omega_gens[i] for i, _ in a) % 2

    def letters(self):
        out = []
        for i in range(self.rank):
            out.append(((i, 1),))
            out.append(((i, -1),))
        return out

    def named_generators(self):
        return [(n, ((i, 1),)) for i, n in enumerate(self.gen_names)]

    def format_elem(self, a):
        if not a:
            return "1"
        parts = []
        for i, e in a:
            parts.append(self.gen_names[i] if e == 1 else f"{self.gen_names[i]}^-1")
        return "*".join(parts)

    def word_length(self, a):
        return len(a)

    def __eq__(self, other):
        return (isinstance(other, FreeGroup)
                and other.gen_names == self.gen_names
                and other.omega_gens == self.omega_gens)

    def __hash__(self):
        return hash(("free", self.gen_names, self.omega_gens))

    def __repr__(self):
        return f"FreeGroup({self.gen_names!r})"


class FiniteTable(GroupModel):
    """Finite group given by a multiplication table; keys are indices.

    Index 0 must be the identity.  The inverse table is derived.  The table
    is validated exactly: rows and columns must be permutations, the
    generators (all non-identity elements by default) must generate the
    table, multiplication must be associative, and omega must be a
    homomorphism to Z/2.
    """

    kind = "finite-table"

    def __init__(self, table, names, omega_vec=None, generators=None):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        self.names = tuple(names)
        self.omega_vec = tuple(omega_vec or [0] * n)
        if len(self.names) != n or len(self.omega_vec) != n:
            raise GroupError("finite-table: names/omega length mismatch")
        self.generators = tuple(generators if generators is not None
                                else range(1, n))
        self._validate()
        self.inv_table = tuple(self._find_inverse(i) for i in range(n))

    def _validate(self):
        n = self.order
        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise GroupError(f"finite-table: row {i} is not a permutation")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != full:
                raise GroupError(f"finite-table: column {j} is not a permutation")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise GroupError("finite-table: index 0 is not the identity")
        t = self.table
        if any(not 0 <= g < n for g in self.generators):
            raise GroupError("finite-table: generator index out of range")
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                if t[x][g] not in reached:
                    reached.add(t[x][g])
                    frontier.append(t[x][g])
        if len(reached) != n:
            raise GroupError("finite-table: generators do not generate the table")
        # Light's test: the g with (x g) y = x (g y) for all x, y are closed
        # under products, so checking a generating set checks every triple
        for g in self.generators:
            for x in range(n):
                xg = t[x][g]
                for y in range(n):
                    if t[xg][y] != t[x][t[g][y]]:
                        raise GroupError(
                            "finite-table: multiplication is not associative")
        for a in range(n):
            for b in range(n):
                expected = (self.omega_vec[a] + self.omega_vec[b]) % 2
                if self.omega_vec[self.table[a][b]] != expected:
                    raise GroupError("finite-table: omega is not a homomorphism")

    def _find_inverse(self, i):
        for j in range(self.order):
            if self.table[i][j] == 0:
                return j
        raise GroupError(f"finite-table: element {i} has no inverse")

    def identity(self):
        return 0

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    def omega(self, a):
        return self.omega_vec[a]

    def letters(self):
        out = []
        for g in self.generators:
            if g not in out and g != 0:
                out.append(g)
            h = self.inv_table[g]
            if h not in out and h != 0:
                out.append(h)
        return out

    def named_generators(self):
        return [(self.names[g], g) for g in self.generators]

    def format_elem(self, a):
        return self.names[a]

    def is_finite(self):
        return True

    def elements(self):
        return list(range(self.order))

    def word_length(self, a):
        return 0 if a == 0 else 1

    def sort_key(self, a):
        return (a,)

    def __eq__(self, other):
        return (isinstance(other, FiniteTable)
                and other.table == self.table
                and other.omega_vec == self.omega_vec
                and other.names == self.names)

    def __hash__(self):
        return hash(("ft", self.table, self.omega_vec))

    def __repr__(self):
        return f"FiniteTable(order={self.order})"

    @classmethod
    def cyclic(cls, p: int, gen_name: str = "g", omega_gen: int = 0):
        """Z/p with generator named gen_name."""
        if p < 1:
            raise GroupError("cyclic: order must be positive")
        table = [[(i + j) % p for j in range(p)] for i in range(p)]
        names = ["1"] + [gen_name if k == 1 else f"{gen_name}^{k}"
                         for k in range(1, p)]
        if omega_gen % 2 and p % 2:
            raise GroupError("cyclic: omega must kill odd-order generators")
        omega_vec = [(k * omega_gen) % 2 for k in range(p)]
        return cls(table, names, omega_vec, generators=[1] if p > 1 else [])

    @classmethod
    def symmetric3(cls):
        """S3 as a table group; useful for nonabelian linearization tests."""
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
        index = {p: i for i, p in enumerate(perms)}

        def compose(p, q):
            return tuple(p[q[i]] for i in range(3))

        table = [[index[compose(p, q)] for q in perms] for p in perms]
        names = ["1", "r", "r^2", "s", "rs", "r^2s"]
        return cls(table, names, generators=[1, 3])


class FreeProduct(GroupModel):
    """Free product of two models; keys are alternating reduced words.

    A word is a tuple of letters (side, child_key) with no identity letters
    and no two consecutive letters from the same side.
    """

    kind = "free-product"

    def __init__(self, left: GroupModel, right: GroupModel):
        self.left = left
        self.right = right
        self.children = (left, right)

    @property
    def keys_grow_with_power(self):
        return any(child.keys_grow_with_power for child in self.children)

    def identity(self):
        return ()

    def _reduce_push(self, word, side, key):
        child = self.children[side]
        if key == child.identity():
            return
        if word and word[-1][0] == side:
            merged = child.mul(word[-1][1], key)
            word.pop()
            if merged != child.identity():
                word.append((side, merged))
        else:
            word.append((side, key))

    def mul(self, a, b):
        word = list(a)
        for side, key in b:
            self._reduce_push(word, side, key)
        return tuple(word)

    def inv(self, a):
        return tuple((side, self.children[side].inv(k)) for side, k in reversed(a))

    def omega(self, a):
        return sum(self.children[side].omega(k) for side, k in a) % 2

    def letters(self):
        out = []
        for side, child in enumerate(self.children):
            if child.is_finite():
                pool = [g for g in child.elements() if g != child.identity()]
            else:
                pool = child.letters()
            for k in pool:
                out.append(((side, k),))
        return out

    def named_generators(self):
        """Each factor's generators in turn, embedded on its own side."""
        return [(name, self.embed(side, key))
                for side, child in enumerate(self.children)
                for name, key in child.named_generators()]

    def embed(self, side: int, key):
        child = self.children[side]
        if key == child.identity():
            return ()
        return ((side, key),)

    def factor_embedding(self, model: GroupModel):
        """Return a key-mapping function for `model` as an iterated factor.

        Searches the left/right factors recursively; None if absent.
        """
        for side, child in enumerate(self.children):
            if child == model:
                return lambda key, s=side: self.embed(s, key)
            if isinstance(child, FreeProduct):
                inner = child.factor_embedding(model)
                if inner is not None:
                    return lambda key, s=side, f=inner: self.embed_word(s, f(key))
        return None

    def embed_word(self, side: int, word):
        # Re-wrap a child free-product word as a single letter of this model.
        child = self.children[side]
        if word == child.identity():
            return ()
        return ((side, word),)

    def format_elem(self, a):
        if not a:
            return "1"
        return "*".join(self.children[side].format_elem(k) for side, k in a)

    def word_length(self, a):
        return sum(max(1, self.children[side].word_length(k)) for side, k in a)

    def __eq__(self, other):
        return (isinstance(other, FreeProduct)
                and other.left == self.left and other.right == self.right)

    def __hash__(self):
        return hash(("fp", self.left, self.right))

    def __repr__(self):
        return f"FreeProduct({self.left!r}, {self.right!r})"


class RingElem:
    """Element of Lambda = Z[G]: finite support mapping keys -> nonzero ints."""

    __slots__ = ("model", "support")

    def __init__(self, model: GroupModel, support=None):
        self.model = model
        self.support = {k: c for k, c in (support or {}).items() if c != 0}

    def _check(self, other):
        if not isinstance(other, RingElem) or other.model != self.model:
            raise GroupError("model mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.model.from_int(other)
        self._check(other)
        out = dict(self.support)
        for k, c in other.support.items():
            out[k] = out.get(k, 0) + c
        return RingElem(self.model, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.model, {k: -c for k, c in self.support.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.model.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Convolution product; integer operands scale."""
        if isinstance(other, int):
            return RingElem(self.model,
                            {k: c * other for k, c in self.support.items()})
        self._check(other)
        out = {}
        for g, a in self.support.items():
            for h, b in other.support.items():
                k = self.model.mul(g, h)
                out[k] = out.get(k, 0) + a * b
        return RingElem(self.model, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def bar(self):
        """The twisted involution: g -> (-1)^omega(g) g^{-1}, Z-linearly."""
        m = self.model
        out = {}
        for g, c in self.support.items():
            k = m.inv(g)
            out[k] = out.get(k, 0) + (-c if m.omega(g) else c)
        return RingElem(m, out)

    def aug(self) -> int:
        """Augmentation: sum of coefficients."""
        return sum(self.support.values())

    def aug_signed(self) -> int:
        """Twisted augmentation: sum of (-1)^omega(g) * coeff."""
        m = self.model
        return sum(-c if m.omega(g) else c for g, c in self.support.items())

    def in_augmentation_ideal(self) -> bool:
        return self.aug() == 0

    def is_zero(self) -> bool:
        return not self.support

    def is_unit_monomial(self):
        """Return (key, sign) if this is +-g for a single g, else None."""
        if len(self.support) != 1:
            return None
        (k, c), = self.support.items()
        return (k, c) if c in (1, -1) else None

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.model.from_int(other)
        return (isinstance(other, RingElem) and other.model == self.model
                and other.support == self.support)

    def __hash__(self):
        return hash((self.model, tuple(sorted(
            ((self.model.format_elem(k), c) for k, c in self.support.items())))))

    def __str__(self):
        if not self.support:
            return "0"
        m = self.model
        items = sorted(self.support.items(), key=lambda kv: m.sort_key(kv[0]))
        parts = []
        for k, c in items:
            name = m.format_elem(k)
            if name == "1":
                term = str(abs(c))
            elif abs(c) == 1:
                term = name
            else:
                term = f"{abs(c)}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__
