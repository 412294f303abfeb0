"""Frozen reference heat trace polynomials for the whole catalog.

Each entry gives, for a group id, the holonomy order and a function of the
form degree p returning the term list of the scaled heat trace polynomial
|F| * Z_p as (monomial, coefficient) pairs.  The data was fixed by hand from
the closed-form expressions for these groups and is kept independent of the
engine: only generic constructors (QuadNumber, krawtchouk, binomial, and
the Fraction monomial builder `oracle.monomial`) are used.

Offsets are written pre-folding; the monomial constructor folds r and 1 - r
together, so e.g. z_{1,1/4} + z_{1,3/4} appears as 2 z[1,1/4].
"""
from fractions import Fraction
from math import comb

from flat4spec.kraw import krawtchouk
from flat4spec.qfield import QuadNumber

from oracle import monomial

H = Fraction(1, 2)
R2 = QuadNumber(0, 1)                    # sqrt2
R2H = QuadNumber(0, Fraction(1, 2))      # sqrt2 / 2
R3T = QuadNumber(0, 0, Fraction(1, 3))   # sqrt3 / 3

X = (1, Fraction(0))
Y = (1, H)
Z20 = (2, Fraction(0))
Z2H = (2, H)
Z14 = (1, Fraction(1, 4))
Z13 = (1, Fraction(1, 3))
Z16 = (1, Fraction(1, 6))
Z30 = (3, Fraction(0))


def M(*vs):
    return monomial((v, 1) for v in vs)


X4 = M(X, X, X, X)
XXY = M(X, X, Y)
XYY = M(X, Y, Y)
YYY = M(Y, Y, Y)
XY = M(X, Y)
YY = M(Y, Y)
XYZ = M(X, Y, Z20)
YYZ = M(Y, Y, Z20)
YZ = M(Y, Z20)
YZH = M(Y, Z2H)

# trace rows tr_p for the non-diagonal matrix parts that occur, as rows over
# p = 0..4: coefficients of det(Id + t B)
ROW_PLANE2 = (1, 2, 2, 2, 1)    # order 4 rotation plane + two fixed axes
ROW_PLANE0 = (1, 0, 0, 0, -1)   # order 4, one fixed axis or one 2-cycle
ROW_ORD3 = (1, 1, 0, 1, 1)      # 3-cycle + fixed axis
ROW_ORD6 = (1, 1, 0, -1, -1)    # order 6: negative 3-cycle + fixed axis


def K(p, j):
    return krawtchouk(4, p, j)


def C(p):
    return comb(4, p)


# id -> (order, terms(p)); ids absent here are aliases, see ALIASES below
TABLE = {
    "1": (1, lambda p: [(X4, C(p))]),
    "2": (2, lambda p: [(X4, C(p)), (XXY, K(p, 1))]),
    "2'": (2, lambda p: [(X4, C(p)), (XYY, K(p, 1))]),
    "2''": (2, lambda p: [(X4, C(p)), (YYY, K(p, 1))]),
    "3": (2, lambda p: [(X4, C(p)), (XYZ, R2H * K(p, 1))]),
    "3'": (2, lambda p: [(X4, C(p)), (YYZ, R2H * K(p, 1))]),
    "4": (2, lambda p: [(X4, C(p)), (M(Y), K(p, 3))]),
    "5": (2, lambda p: [(X4, C(p)), (XY, K(p, 2))]),
    "5'": (2, lambda p: [(X4, C(p)), (YY, K(p, 2))]),
    "6": (2, lambda p: [(X4, C(p)), (YZ, R2H * K(p, 2))]),
    "47": (3, lambda p: [(X4, C(p)), (M(Z13, Z30), 2 * R3T * ROW_ORD3[p])]),
    "7": (4, lambda p: [(X4, C(p)), (XXY, 2 * K(p, 1)), (XY, K(p, 2))]),
    "7'": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XYY, K(p, 1)),
                         (YY, K(p, 2))]),
    "8": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XYY, K(p, 1)),
                        (XY, K(p, 2))]),
    "8'": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (YYY, K(p, 1)),
                         (YY, K(p, 2))]),
    "9": (4, lambda p: [(X4, C(p)), (XXY, 2 * K(p, 1)), (YY, K(p, 2))]),
    "10'": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (YYY, K(p, 1)),
                          (XY, K(p, 2))]),
    "10''": (4, lambda p: [(X4, C(p)), (XYY, 2 * K(p, 1)), (XY, K(p, 2))]),
    "11": (4, lambda p: [(X4, C(p)), (XYY, 2 * K(p, 1)), (YY, K(p, 2))]),
    "11'": (4, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (YYY, K(p, 1)),
                          (XY, K(p, 2))]),
    "12": (4, lambda p: [(X4, C(p)), (XYZ, R2 * K(p, 1)), (YY, K(p, 2))]),
    "12'": (4, lambda p: [(X4, C(p)), (YYZ, R2H * K(p, 1)),
                          (XYZ, R2H * K(p, 1)), (XY, K(p, 2))]),
    "13": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XYZ, R2H * K(p, 1)),
                         (YZ, R2H * K(p, 2))]),
    "13'": (4, lambda p: [(X4, C(p)), (YYY, K(p, 1)), (XYZ, R2H * K(p, 1)),
                          (YZ, R2H * K(p, 2))]),
    "14": (4, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (XYZ, R2H * K(p, 1)),
                         (YZ, R2H * K(p, 2))]),
    "15": (4, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (YYZ, R2H * K(p, 1)),
                         (YZ, R2H * K(p, 2))]),
    "18": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XY, K(p, 2)),
                         (M(Y), K(p, 3))]),
    "19'": (4, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (XY, K(p, 2)),
                          (M(Y), K(p, 3))]),
    "20": (4, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (YY, K(p, 2)),
                         (M(Y), K(p, 3))]),
    "20'": (4, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (YY, K(p, 2)),
                          (M(Y), K(p, 3))]),
    "21'": (4, lambda p: [(X4, C(p)), (YYY, K(p, 1)), (XY, K(p, 2)),
                          (M(Y), K(p, 3))]),
    "22": (4, lambda p: [(X4, C(p)), (XYZ, R2H * K(p, 1)),
                         (YZ, R2H * K(p, 2)), (M(Y), K(p, 3))]),
    "23": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)), (M(Y), 2 * K(p, 3))]),
    "23'": (4, lambda p: [(X4, C(p)), (YY, K(p, 2)), (M(Y), 2 * K(p, 3))]),
    "24": (4, lambda p: [(X4, C(p)), (XY, 3 * K(p, 2))]),
    "25": (4, lambda p: [(X4, C(p)), (XY, 2 * K(p, 2)), (YY, K(p, 2))]),
    "27": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)), (YY, 2 * K(p, 2))]),
    "28": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)), (YZ, R2 * K(p, 2))]),
    "29": (4, lambda p: [(X4, C(p)), (YY, K(p, 2)), (YZ, R2 * K(p, 2))]),
    "29'": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)), (YZ, R2H * K(p, 2)),
                          (YZH, R2H * K(p, 2))]),
    "45": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)),
                         (M(X, Z14), 2 * ROW_PLANE2[p])]),
    "45'": (4, lambda p: [(X4, C(p)), (YY, K(p, 2)),
                          (M(Z14, Z14), 2 * ROW_PLANE2[p])]),
    "50": (4, lambda p: [(X4, C(p)), (XY, K(p, 2)),
                         (M(Z14), 2 * ROW_PLANE0[p])]),
    "51": (4, lambda p: [(X4, C(p)), (YY, K(p, 2)),
                         (M(Z2H), R2 * ROW_PLANE0[p])]),
    "64": (6, lambda p: [(X4, C(p)), (M(Z13, Z30), 2 * R3T * ROW_ORD3[p]),
                         (M(Y), K(p, 3)), (M(Z16), 2 * ROW_ORD6[p])]),
    "67": (6, lambda p: [(X4, C(p)), (YZ, 3 * R2H * K(p, 2)),
                         (M(Z13, Z30), 2 * R3T * ROW_ORD3[p])]),
    "33": (8, lambda p: [(X4, C(p)), (XXY, 3 * K(p, 1)), (XY, 2 * K(p, 2)),
                         (YY, K(p, 2)), (M(Y), K(p, 3))]),
    "34": (8, lambda p: [(X4, C(p)), (XXY, 2 * K(p, 1)), (XYY, K(p, 1)),
                         (XY, K(p, 2)), (YY, 2 * K(p, 2)), (M(Y), K(p, 3))]),
    "35": (8, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XYY, K(p, 1)),
                         (YYY, K(p, 1)), (XY, 3 * K(p, 2)), (M(Y), K(p, 3))]),
    "36": (8, lambda p: [(X4, C(p)), (XXY, 2 * K(p, 1)), (XYY, K(p, 1)),
                         (XY, 3 * K(p, 2)), (M(Y), K(p, 3))]),
    "37": (8, lambda p: [(X4, C(p)), (XXY, 2 * K(p, 1)), (YYY, K(p, 1)),
                         (XY, 2 * K(p, 2)), (YY, K(p, 2)), (M(Y), K(p, 3))]),
    "39": (8, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XYY, 2 * K(p, 1)),
                         (XY, 2 * K(p, 2)), (YY, K(p, 2)), (M(Y), K(p, 3))]),
    "42": (8, lambda p: [(X4, C(p)), (XYY, 3 * K(p, 1)), (XY, 3 * K(p, 2)),
                         (M(Y), K(p, 3))]),
    "43": (8, lambda p: [(X4, C(p)), (XXY, K(p, 1)), (XY, 2 * K(p, 2)),
                         (YY, K(p, 2)), (M(Y), 3 * K(p, 3))]),
    "44": (8, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (XY, 3 * K(p, 2)),
                         (M(Y), 3 * K(p, 3))]),
    "57": (8, lambda p: [(X4, C(p)), (XYY, K(p, 1)), (XY, K(p, 2)),
                         (M(Z14), 2 * ROW_PLANE0[p]),
                         (M(X, Z14), 2 * ROW_PLANE2[p]), (M(Y), K(p, 3))]),
    "54": (8, lambda p: [(X4, C(p)), (XYZ, R2 * K(p, 1)), (YY, K(p, 2)),
                         (YZ, R2 * K(p, 2)), (M(Z2H), R2 * ROW_PLANE0[p])]),
    "56": (8, lambda p: [(X4, C(p)), (XY, K(p, 2)), (YZ, R2 * K(p, 2)),
                         (M(Z14), 2 * ROW_PLANE0[p]), (M(Y), 2 * K(p, 3))]),
    "60": (8, lambda p: [(X4, C(p)), (XY, 3 * K(p, 2)), (YZ, R2 * K(p, 2)),
                         (M(X, Z14), 2 * ROW_PLANE2[p])]),
    "61": (8, lambda p: [(X4, C(p)), (XY, K(p, 2)), (YY, 2 * K(p, 2)),
                         (YZ, R2 * K(p, 2)), (M(X, Z14), 2 * ROW_PLANE2[p])]),
    "62": (8, lambda p: [(X4, C(p)), (XY, 3 * K(p, 2)), (YZ, R2 * K(p, 2)),
                         (M(Y, Z14), 2 * ROW_PLANE2[p])]),
}

# stated coincidences: each alias id has the same polynomial as its target
ALIASES = {
    "3''": "3",
    "3'''": "3'",
    "6'": "6",
    "47'": "47",
    "10": "7'",
    "9'": "8",
    "14'": "14",
    "15'": "15",
    "19": "18",
    "21": "19'",
    "22'": "22",
    "26": "24",
    "38": "34",
    "40": "35",
    "41": "39",
    "58": "57",
}


def golden(gid: str, p: int):
    """(order, term list) of the reference |F| * Z_p polynomial."""
    gid = ALIASES.get(gid, gid)
    order, terms = TABLE[gid]
    return order, terms(p)
