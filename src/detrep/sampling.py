"""Deterministic random instances for trials and audits.

Seeding goes through a single derivation rule so that a trial is
reproducible from (master seed, label, index) alone.  random.Random is
seeded with the formatted string; string seeding hashes via SHA-512
internally, so streams are stable across platforms and Python builds,
unlike hash()-based schemes.

The master seed comes from, in order of precedence: an explicit value
(a --seed flag), the DETREP_SEED environment variable, DEFAULT_SEED.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import Optional, Tuple

from .bundles import BundleSpec, ambient_degrees
from .detmatrix import Section
from .polynomials import HomPoly, mono_basis, parse_integer

DEFAULT_SEED = 1729
ENV_SEED_VAR = "DETREP_SEED"

COEFF_LO = -10
COEFF_HI = 10


def resolve_seed(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_SEED_VAR)
    if env is not None:
        return parse_integer(env, f"{ENV_SEED_VAR} must be an integer, got ")
    return DEFAULT_SEED


def derive_rng(master: int, label: str, index: int) -> random.Random:
    """One independent stream per (label, index) under a master seed."""
    return random.Random(f"{master}:{label}:{index}")


def random_hompoly(rng: random.Random, degree: int) -> HomPoly:
    """Integer coefficients uniform in [COEFF_LO, COEFF_HI], any may vanish."""
    terms = {}
    for mono in mono_basis(degree):
        c = rng.randint(COEFF_LO, COEFF_HI)
        if c:
            terms[mono] = Fraction(c)
    return HomPoly(degree, terms)


def random_section(rng: random.Random, bundle: BundleSpec) -> Section:
    comps = tuple(random_hompoly(rng, d) for d in ambient_degrees(bundle))
    return Section(bundle, comps)


def random_pair(rng: random.Random, bundle: BundleSpec) -> Tuple[Section, Section]:
    return random_section(rng, bundle), random_section(rng, bundle)
