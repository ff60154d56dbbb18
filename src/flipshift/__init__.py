"""Exact-arithmetic toolkit for shift-flip systems of finite type."""

from .errors import (BudgetError, CertificateError, FlipPairError,
                     FlipShiftError, MatrixShapeError, OrderMismatchError,
                     SchemaError, SpecError)
from .flips import FlipPair
from .matrices import (IntMatrix, IntPolynomial, char_poly, mat_mul,
                       mat_pow, rank_over_rationals, trace)
from .series import (TruncatedSeries, series_add, series_exp, series_log,
                     series_mul, substitute_t_squared)
from .shifts import (blocks, count_pmn_bruteforce, enumerate_periodic,
                     essential_symbols)
from .zeta import (FlipCountTriple, artin_mazur_zeta, generating_function,
                   lind_zeta, p_flip_counts, verify_prop31)
from .equivalence import (HalfElemCert, ShiftFlipCert, StrongChain,
                          gamma_block, he_check, he_search, sfe_bounded_search,
                          sfe_check, sse_verify, verify_prop22)
from .constructions import (BlockCode, BlockFlipSpec, ConjugacyDecomposition,
                            OneBlockConjugacySpec, build_flip_pair,
                            decompose_conjugacy, higher_block,
                            verify_decomposition)

__version__ = "0.1.0"

__all__ = [
    "BlockCode", "BlockFlipSpec", "BudgetError", "CertificateError",
    "ConjugacyDecomposition", "FlipCountTriple", "FlipPair", "FlipPairError",
    "FlipShiftError", "HalfElemCert", "IntMatrix", "IntPolynomial",
    "MatrixShapeError", "OneBlockConjugacySpec", "OrderMismatchError",
    "SchemaError", "ShiftFlipCert", "SpecError", "StrongChain",
    "TruncatedSeries", "artin_mazur_zeta", "blocks", "build_flip_pair",
    "char_poly", "count_pmn_bruteforce", "decompose_conjugacy",
    "enumerate_periodic", "essential_symbols", "gamma_block",
    "generating_function", "he_check", "he_search", "higher_block",
    "lind_zeta", "mat_mul", "mat_pow", "p_flip_counts", "rank_over_rationals",
    "series_add", "series_exp", "series_log", "series_mul",
    "sfe_bounded_search", "sfe_check", "sse_verify", "substitute_t_squared",
    "trace", "verify_decomposition", "verify_prop22", "verify_prop31",
]
