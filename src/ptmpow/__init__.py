"""Exact integer arithmetic for the coefficient families of F(x)^t, where
F(x) = prod_{n>=0} (1 - x^(2^n)) generates the Prouhet-Thue-Morse sequence.

Every value is exact (Python big integers and fractions).  The one use of
floating point is `campaigns._turan_signs`, which decides the sign of
b^2 - ac from doubles where rounding provably cannot flip it and settles
every other index with exact integers.
"""

__version__ = "0.1.0"

# values per batch of text that seq (csv and json) and cache store format
# and write: a b_m window is a large decimal text (b_6 to 2^16 is 7 MB), and
# each writer holds one batch of it
TEXT_BATCH = 4096
