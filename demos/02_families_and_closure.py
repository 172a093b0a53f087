"""Meet-closed families of bit vectors.

The models of a ground Horn theory are exactly the families closed under
coordinatewise AND.  Starting from an arbitrary family, repeatedly adding
meets reaches the smallest Horn-representable superset.
"""

from hornenum import VectorFamily, Variant, is_meet_closed, meet_closure, variant_member


def main():
    a = VectorFamily.parse("0110\n1010\n1101\n")
    print("family:")
    print(a.to_text(), end="")
    first, second, _ = a.values
    # the meet is the coordinatewise AND: `&` on the vectors' values
    show = a.format_vector
    print(f"meet of {show(first)} and {show(second)}:", show(first & second))
    print("meet-closed:", is_meet_closed(a))

    closed = meet_closure(a)
    print(f"closure has {len(closed)} vectors:")
    print(closed.to_text(), end="")
    print("meet-closed now:", is_meet_closed(closed))

    for variant in Variant:
        print(f"qualifies for {variant.value}:",
              variant_member(closed, variant))


if __name__ == "__main__":
    main()
