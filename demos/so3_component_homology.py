"""Components of commuting tuples in SO(3) and the homology they carry.

Commuting tuples either share an axis (one big component containing the
trivial tuple) or generate the Klein four-group of diagonal sign matrices,
in which case the component is pinned down by the tuple up to relabeling
the three involutions.  Counting components, tabulating where the face
maps send them, and running Smith normal form on the alternating sums
yields the second homology of the commuting classifying space.
"""

from kocom import boundary_matrix, enumerate_components, face_map, h2_bcom_so3
from kocom.commuting import ELEMENT_NAMES, classify_component, component_complex, component_homology

I, C1, C2, C3 = range(4)


def names(t):
    return "(" + ",".join(ELEMENT_NAMES[e] for e in t) + ")"


def render(label):
    """A component label as exotic(...) or identity(...), by whether it uses c2."""
    return ("exotic" if C2 in label else "identity") + names(label)


print("component counts by tuple length")
for n in range(4):
    labels = enumerate_components(n)
    print(f"  n={n}: {len(labels)}")

print()
print("the seven exotic triple components (canonical representatives)")
for label in enumerate_components(3):
    if C2 in label:
        print(f"  {render(label)}")

print()
print("faces of the exotic triples: -> identity-axis or exotic pair component")
for triple in ((C1, C2, C2), (C2, C2, C3), (C1, C2, C3)):
    images = []
    for i in range(4):
        face = classify_component(face_map(i, triple))
        images.append("exotic" if C2 in face else "axis")
    print(f"  {names(triple)}: " + " ".join(f"d{i}->{img}" for i, img in enumerate(images)))

print()
print("boundary rows {column: coefficient} (columns = components, canonical order)")
for n in (2, 3):
    for row, label in zip(boundary_matrix(n), enumerate_components(n - 1)):
        print(f"  level {n} -> {n - 1}, row {render(label)}: {row}")

print()
complex_ = component_complex(6)
print("homology of the component complex through level 6")
for p in range(6):
    print(f"  H_{p} = {complex_.homology(p)}")
print(f"degree-2 homology of the component complex: {component_homology(2)}")
print(f"plus the Z/2 from the fundamental group:    {h2_bcom_so3()}")
