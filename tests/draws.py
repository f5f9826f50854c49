"""Seeded parameter draws shared by the test modules."""

from radii.families import Base


def whole_domain_parameter(rng, family):
    # Seeded draws over each base's whole domain, edges and large orders included.
    if family.base is Base.BESSEL:
        return rng.choice(
            [-1.0 + 10.0 ** rng.uniform(-9, 0), rng.uniform(-1.0, 30.0), 10.0 ** rng.uniform(0, 4)]
        )
    if family.base is Base.STRUVE:
        return rng.choice([-0.5, 0.5, rng.uniform(-0.5, 0.5), 0.5 - 10.0 ** rng.uniform(-12, -1)])
    mu = rng.choice([rng.uniform(-1.0, 1.0), 1.0 - 10.0 ** rng.uniform(-9, -1)])
    return mu * rng.choice([-1.0, 1.0]) or 0.5
