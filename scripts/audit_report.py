#!/usr/bin/env python3
"""Re-derive the n=6 three-concentric-ellipse criterion exactly and report
whether the commonly quoted -41 coefficient of xi1*xi3*xi5 holds up."""

from fractions import Fraction

from reciprange.concentric6 import (
    audit_concentric_criterion,
    evaluate_criterion,
    find_concentric_instance,
)

NAMES = ["xi1", "xi2", "xi3", "xi4", "xi5"]


def poly_str(p):
    def mono(m):
        return "*".join(f"{NAMES[i]}^{e}" if e > 1 else NAMES[i] for i, e in enumerate(m) if e)

    terms = sorted(p.items(), key=lambda kv: (-sum(kv[0]), kv[0]), reverse=False)
    return " + ".join(f"({c})*{mono(m)}" for m, c in terms)


def main():
    res = audit_concentric_criterion()
    g2a, g2b, g3 = res["derived_system"]
    print("Derived criterion (rational coefficients, times 7/7/49 gives the integer form):")
    for name, g in (("quadratic A", g2a), ("quadratic B", g2b), ("cubic", g3)):
        print(f"  {name}: {len(g)} terms")
    f1, f2 = res["quadratic_scale_factors"]
    print(f"scale factors vs quoted form: {f1}, {f2} and {res['cubic_scale_factor']}")
    print(f"quoted coefficient of xi1*xi3*xi5: {res['printed_coefficient']}")
    print(f"reconstructed coefficient:         {res['reconstructed_coefficient']}")
    print("verdict:", "CONFIRMED" if res["confirmed"] else "CORRECTED")

    xi, t = find_concentric_instance(seed=1)
    vals = evaluate_criterion(xi)
    wrong = evaluate_criterion(xi, third_eq_coefficient=Fraction(-4))
    print(f"\nsample instance xi = {[round(v, 6) for v in xi]}")
    print(f"  criterion values (should vanish): {[f'{v:.2e}' for v in vals]}")
    print(f"  cubic with coefficient -4 instead: {wrong[2]:.3e}")
    print(f"  squared minor half-axes: {[round(float(v), 6) for v in t]}")


if __name__ == "__main__":
    main()
