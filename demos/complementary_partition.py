"""Split the columns of a degenerate instance into kernel and image supports.

For any matrix the maximum kernel support S and maximum image support T
partition the column indices: S holds the columns that can carry a
positive kernel vector, T the ones some y separates strictly. Neither
side is full here by construction, so both max-support solvers have
real work to do. The exact check arbitrates: it rebuilds both certificates
in rational arithmetic and proves that their pair is the true partition.
"""

from lincone import (
    check_complementary_pair,
    check_partition_exact,
    gen_degenerate,
    max_support_image,
    max_support_kernel,
)


def main():
    inst = gen_degenerate(3, 8, s=5, seed=11)
    n = inst.mat.shape[1]
    print(f"instance: 3 x {n}, planted kernel support of size 5")
    print(inst.mat.astype(int))

    kcert, ksupp, krep = max_support_kernel(inst.mat)
    icert, isupp, irep = max_support_image(inst.mat)
    print(f"kernel side: support {sorted(ksupp.tolist())} ({krep.status}, "
          f"{krep.rescalings} rescalings, {krep.removals} removals)")
    print(f"image side:  support {sorted(isupp.tolist())} ({irep.status}, "
          f"{irep.rescalings} rescalings, {irep.removals} removals)")

    pair = check_complementary_pair(ksupp, isupp, n)
    print(f"disjoint cover of all {n} columns: {pair.valid} ({pair.message})")

    exact = check_partition_exact(inst.mat, kcert, icert)
    print(f"proved exactly in rational arithmetic: {exact.valid} ({exact.message})")


if __name__ == "__main__":
    main()
