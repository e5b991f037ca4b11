"""Step-size and momentum laws, fixed-horizon and staged.

The adaptive step size starts on a horizon-only cap and hands over to a
data-driven branch once the accumulated estimator energy passes T^(1/3).
The staged variant reproduces the same law per stage of length 2^k, so no
total horizon is ever needed in advance.
"""

from stormlab import (
    ada_beta,
    ada_lr,
    finite_sum_beta,
    finite_sum_lr,
    make_noisy_quadratic,
    run_ada_storm_doubling,
    stage_length,
)


def main():
    T = 100_000
    print(f"== fixed horizon T={T} ==")
    print(f"momentum beta = T^(-2/3) = {ada_beta(T):.3e}")
    print(f"step-size cap = T^(-1/3) = {ada_lr(T, 0.3, 0.0):.3e}")
    print("accumulated energy -> step size (alpha=0.3):")
    for s in (1.0, 10.0, T ** (1 / 3), 100.0, 1e4, 1e6):
        print(f"  sum={s:>10.1f}  eta={ada_lr(T, 0.3, s):.6e}")

    print()
    print("== stage bookkeeping: I(t) = largest power of two <= t ==")
    for t in (1, 2, 3, 7, 8, 9, 1023, 1024):
        stage, reset = stage_length(t)
        mark = "  <- stage boundary, sums restart" if reset else ""
        print(f"  t={t:5d}  stage={stage:5d}{mark}")

    print()
    print("== staged run: beta steps down at each power of two ==")
    quad = make_noisy_quadratic(dim=8, L=10.0, mu=1.0, sigma=1.0, seed=21)
    rec = run_ada_storm_doubling(quad, 64, seed=3)
    for t in (1, 2, 4, 8, 16, 32, 64):
        print(
            f"  t={t:3d}  beta={rec.beta[t - 1]:.4f}  eta={rec.eta[t - 1]:.4f}"
        )
    stage, _ = stage_length(64)
    eta, beta = ada_lr(stage, 0.3, 5.0), ada_beta(stage)
    print(f"law check at t=64, stage sum 5.0: eta={eta:.4f} beta={beta:.4f}")

    print()
    print("== finite-sum law (n components) ==")
    n = 100
    print(f"beta = 1/n = {finite_sum_beta(n)}")
    for s in (1.0, 100.0, 1e4):
        print(f"  sum={s:>8.1f}  eta={finite_sum_lr(n, 0.3, s):.6e}")


if __name__ == "__main__":
    main()
