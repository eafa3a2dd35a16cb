"""Walk the doubled time contour and compare its order with time order.

The contour visits every grid time twice: once on the forward branch in
chronological order, then on the backward branch in reverse.  Its steps
are (k, l) pairs of grid-slot indices, forward exactly when k < l, and
contour order is position on that path.  It is therefore not time order;
the same physical time appears at two very different contour positions.
"""

from qcontour import contour_path


def main():
    times = (0.0, 0.5, 1.0, 2.0)
    print(f"grid times: {times}\n")
    path = contour_path(len(times))
    tags = ["f" if k < l else "b" for k, l in path]

    def point(slot, tag):
        return f"{times[slot]:g}^{tag}"

    print("full contour order (forward branch first, backward reversed):")
    # each (slot, branch) in the order the walk reaches it
    points = list(dict.fromkeys((slot, tag) for (k, l), tag in zip(path, tags)
                                for slot in (k, l)))
    print("  " + "  ->  ".join(point(*z) for z in points))

    print("\ntime order vs contour order for a backward pair:")
    early, late = points.index((1, "b")), points.index((2, "b"))
    verdict = "after" if early > late else "before"
    print("  physically, t=0.5 happens before t=1.0")
    print(f"  on the contour, 0.5^b is at position {early} and 1.0^b at "
          f"position {late}: 0.5^b comes {verdict} 1.0^b")

    print("\nthe integration path, one directed step per segment:")
    for (k, l), tag in zip(path, tags):
        print(f"  {point(k, tag)} -> {point(l, tag)}")
    n = len(times)
    print(f"\n{len(path)} steps for {n} grid times: 2(N_t - 1) = "
          f"{2 * (n - 1)}.")


if __name__ == "__main__":
    main()
