"""Exact integer arithmetic for the coefficient families of F(x)^t, where
F(x) = prod_{n>=0} (1 - x^(2^n)) generates the Prouhet-Thue-Morse sequence.

Every value is exact (Python big integers and fractions).  The one use of
floating point is a ratio test on doubles a, b, c within a relative e of
their integers: fl(b*b) > fl(fl(a*c) * K) proves b^2 > ac, and
fl(a*c) > fl(fl(b*b) * K) proves b^2 < ac, for K = 1 + 4.05 e + 4u a
little above (1+e)^2 (1+u) / ((1-e)^2 (1-u)^2).  Every index it leaves
unsure is settled with exact integers (`campaigns._turan_signs`, and
`campaigns._turan_failure` for the first failure).
"""

__version__ = "0.1.0"

# values per batch of text that seq (csv and json) and cache store format
# and write: a b_m window is a large decimal text (b_6 to 2^16 is 7 MB), and
# each writer holds one batch of it
TEXT_BATCH = 4096
