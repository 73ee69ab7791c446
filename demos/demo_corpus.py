"""Walk the reference corpus: profiles, classes, and planarity.

Run:  python demos/demo_corpus.py
"""

from arcon import ac_number, homeo_class, is_planar, necessary_conditions
from arcon import corpus


def main() -> None:
    print(f"{'graph':<22}{'ac':>6}  {'class':<14}{'planar':<8}{'end_count':<11}three_leaf_blocks")
    for ce in corpus.CORPUS:
        g = ce.builder()
        prof = ac_number(g)
        rep = necessary_conditions(g)
        ends = "-" if rep.end_count is None else str(rep.end_count)
        print(f"{ce.name:<22}{prof.label:>6}  {homeo_class(g).value:<14}"
              f"{str(is_planar(g)).lower():<8}{ends:<11}{str(rep.three_leaf_blocks).lower()}")
        assert prof.label == ce.ac, f"{ce.name}: expected {ce.ac}, got {prof.label}"
    print("\nAll profiles match the documented values.")


if __name__ == "__main__":
    main()
