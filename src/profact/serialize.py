"""JSON interchange for all structures the command line consumes and emits.

Every emitted document carries a schema_version field.  Input documents may
omit derivable data: diagram identity arrows are added automatically and
missing composite arrows are filled in from shorter ones when that is
unambiguous by functoriality.

Only base and poset load with this module: each parser imports the
construction module of the object it builds, so a command loads what its
inputs need and no more.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .base import BaseMorphism, BaseObject, compose
from .poset import FinPoset

if TYPE_CHECKING:
    from .category import FinCategory
    from .cofinalize import CofinalTower, OverCategoryReport
    from .diagrams import Diagram, NatTrans
    from .factorize import PreMorphism, ReedyFactorization
    from .lifting import ConeLift, LiftingProblem
    from .procalc import ProObject

SCHEMA_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def dumps(payload: dict[str, Any]) -> str:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _require(data: Any, key: str, path: str) -> Any:
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"missing key {key!r}", path)
    return data[key]


def _require_list(value: Any, what: str, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected a list of {what}", path)
    return value


def poset_to_json(poset: FinPoset) -> dict:
    return {
        "elements": list(poset.elements),
        "le": sorted([x, y] for x, y in poset.le_pairs if x != y),
    }


def _ids(data: Any, path: str, what: str = "element") -> list[str]:
    if not isinstance(data, list) or not all(isinstance(e, str) for e in data):
        raise ParseError(f"expected a list of {what} ids", path)
    return data


def poset_from_json(data: Any, path: str = "$") -> FinPoset:
    elements = _ids(_require(data, "elements", path), path + ".elements")
    pairs = _require_list(data.get("le", []), "pairs", path + ".le")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise ParseError("expected a list of two element ids", f"{path}.le[{i}]")
    try:
        return FinPoset.make(elements, [tuple(p) for p in pairs])
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _is_element(shape: FinPoset, x: Any) -> bool:
    return isinstance(x, str) and x in shape


def object_from_json(data: Any, path: str = "$") -> BaseObject:
    try:
        return BaseObject(tuple(_ids(data, path)))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def morphism_to_json(f: BaseMorphism) -> dict:
    return {"source": list(f.source.carrier), "target": list(f.target.carrier), "map": dict(f.mapping)}


def morphism_from_json(data: Any, path: str = "$") -> BaseMorphism:
    source = object_from_json(_require(data, "source", path), path + ".source")
    target = object_from_json(_require(data, "target", path), path + ".target")
    return _component_morphism(source, target, data, "map", path)


def _component_morphism(
    source: BaseObject, target: BaseObject, data: Any, key: str, path: str
) -> BaseMorphism:
    """The assignment data[key] as a map source -> target; path locates data."""
    mapping = _require(data, key, path)
    path = f"{path}.{key}"
    if not isinstance(mapping, dict):
        raise ParseError("expected an assignment object", path)
    try:
        return BaseMorphism(source, target, dict(mapping))
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), path) from exc


def diagram_to_json(diagram: Diagram) -> dict:
    return {
        "poset": poset_to_json(diagram.shape),
        "objects": {x: list(diagram.at(x).carrier) for x in diagram.shape.elements},
        "arrows": [
            {"from": x, "to": y, "map": dict(diagram.arrow(x, y).mapping)}
            for x, y in diagram.shape.strict_pairs()
        ],
    }


def diagram_from_json(data: Any, path: str = "$") -> Diagram:
    from .diagrams import Diagram
    shape = poset_from_json(_require(data, "poset", path), path + ".poset")
    raw_objects = _require(data, "objects", path)
    objects = {
        x: object_from_json(_require(raw_objects, x, path + ".objects"), f"{path}.objects.{x}")
        for x in shape.elements
    }
    raw_arrows = _require_list(data.get("arrows", []), "arrows", path + ".arrows")
    arrows: dict[tuple[str, str], BaseMorphism] = {}
    for i, entry in enumerate(raw_arrows):
        apath = f"{path}.arrows[{i}]"
        x, y = _require(entry, "from", apath), _require(entry, "to", apath)
        if not (_is_element(shape, x) and _is_element(shape, y) and shape.lt(y, x)):
            raise ParseError(f"arrow over non-strict pair ({x!r}, {y!r})", apath)
        arrows[(x, y)] = _component_morphism(objects[x], objects[y], entry, "map", apath)
    # fill in derivable composites so inputs can list covering arrows only
    changed = True
    while changed:
        changed = False
        for x, y in shape.strict_pairs():
            if (x, y) not in arrows:
                for z in shape.strict_downset(x):
                    if shape.lt(y, z) and (x, z) in arrows and (z, y) in arrows:
                        arrows[(x, y)] = compose(arrows[(z, y)], arrows[(x, z)])
                        changed = True
                        break
    try:
        return Diagram.make(shape, objects, arrows)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def nattrans_to_json(nt: NatTrans) -> dict:
    return {
        "source": diagram_to_json(nt.source),
        "target": diagram_to_json(nt.target),
        "components": {x: dict(nt.at(x).mapping) for x in nt.shape.elements},
    }


def nattrans_from_json(data: Any, path: str = "$") -> NatTrans:
    from .diagrams import NatTrans
    source = diagram_from_json(_require(data, "source", path), path + ".source")
    target = diagram_from_json(_require(data, "target", path), path + ".target")
    raw = _require(data, "components", path)
    components = {
        x: _component_morphism(source.at(x), target.at(x), raw, x, path + ".components")
        for x in source.shape.elements
    }
    try:
        return NatTrans.make(source, target, components)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def category_from_json(data: Any, path: str = "$") -> FinCategory:
    from .category import FinCategory
    objects = _ids(_require(data, "objects", path), path + ".objects", "object")
    morphisms = _ids(_require(data, "morphisms", path), path + ".morphisms", "morphism")
    src, tgt = _require(data, "src", path), _require(data, "tgt", path)
    compose_table = _compose_table(data.get("compose", []), path + ".compose")
    identities = _require(data, "identities", path)
    try:
        return FinCategory.make(objects, morphisms, src, tgt, compose_table, identities)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), path) from exc


def _compose_table(rows: Any, path: str) -> dict[tuple[str, str], str]:
    """The composition table of rows [g, f, g∘f] of morphism ids."""
    table = {}
    for i, row in enumerate(_require_list(rows, "rows of three morphism ids", path)):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(m, str) for m in row)):
            raise ParseError("a row must be three morphism ids", f"{path}[{i}]")
        g, f, h = row
        table[(g, f)] = h
    return table


def _pre_morphism_components(data: Any, families: list[tuple[str, Any, Any]], path: str) -> PreMorphism:
    """The pre-morphism of the index map data["alpha"] at B's elements and,
    for each family (key, X over A, Y over B), the components data[key][b]:
    X(alpha(b)) -> Y(b), read per b in B's order and family by family.
    Other keys are ignored, as in objects and components."""
    from .factorize import PreMorphism
    alpha = _require(data, "alpha", path)
    raws = [_require(data, key, path) for key, _, _ in families]
    a_shape, b_shape = families[0][1].shape, families[0][2].shape
    checked: dict[str, str] = {}
    components: dict[str, dict[str, BaseMorphism]] = {key: {} for key, _, _ in families}
    for b in b_shape.elements:
        a = checked[b] = _require(alpha, b, path + ".alpha")
        if not _is_element(a_shape, a):
            raise ParseError(f"unknown index {a!r}", path + ".alpha")
        for (key, source, target), raw in zip(families, raws):
            components[key][b] = _component_morphism(source.at(a), target.at(b), raw, b, f"{path}.{key}")
    return PreMorphism(checked, components)


def arrow_pre_morphism_from_json(data: Any, f: NatTrans, t: NatTrans, path: str = "$") -> PreMorphism:
    families = [("phi", f.source, t.source), ("psi", f.target, t.target)]
    return _pre_morphism_components(data, families, path)


def reedy_to_json(rf: ReedyFactorization) -> dict:
    return {
        "mid": diagram_to_json(rf.mid),
        "left": {x: dict(rf.left.at(x).mapping) for x in rf.input.shape.elements},
        "right": {x: dict(rf.right.at(x).mapping) for x in rf.input.shape.elements},
        "report": dict(rf.report),
    }


def chi_to_json(chim: PreMorphism, verification: dict[str, bool]) -> dict:
    return {
        "alpha": dict(chim.alpha),
        "chi": {b: morphism_to_json(m) for b, m in chim.chi.items()},
        "report": dict(verification),
    }


def lifting_problem_from_json(data: Any, path: str = "$") -> LiftingProblem:
    from .lifting import LiftingProblem
    left = morphism_from_json(_require(data, "left", path), path + ".left")
    right = nattrans_from_json(_require(data, "right", path), path + ".right")
    top_raw = _require(data, "top", path)
    bottom_raw = _require(data, "bottom", path)
    top = {
        t: _component_morphism(left.source, right.source.at(t), top_raw, t, path + ".top")
        for t in right.shape.elements
    }
    bottom = {
        t: _component_morphism(left.target, right.target.at(t), bottom_raw, t, path + ".bottom")
        for t in right.shape.elements
    }
    problem = LiftingProblem(left, right, top, bottom)
    try:
        problem.validate()
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc
    return problem


def cone_lift_to_json(cone: ConeLift, verification: dict[str, bool]) -> dict:
    return {
        "components": {t: morphism_to_json(m) for t, m in cone.components.items()},
        "report": dict(verification),
    }


def pro_object_from_json(data: Any, path: str = "$") -> ProObject:
    from .procalc import ProObject
    diagram = diagram_from_json(_require(data, "diagram", path), path + ".diagram")
    try:
        return ProObject(diagram)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def pre_morphism_from_json(data: Any, F: ProObject, G: ProObject, path: str = "$") -> PreMorphism:
    return _pre_morphism_components(data, [("phi", F, G)], path)


def pre_morphism_to_json(pm: PreMorphism) -> dict:
    return {"alpha": dict(pm.alpha), "phi": {b: dict(m.mapping) for b, m in pm.phi.items()}}


def tower_to_json(
    tower: CofinalTower, verification: dict[str, bool], reports: list[OverCategoryReport], directed: bool
) -> dict:
    return {
        "levels": [poset_to_json(level) for level in tower.levels],
        "projection": {
            "objects": dict(tower.obj_map),
            "morphisms": {f"{c}>{c2}": m for (c, c2), m in sorted(tower.mor_map.items())},
        },
        "report": {
            "tower": dict(verification),
            "directed": directed,
            "cofinality": [
                {
                    "object": r.object,
                    "nonempty": r.nonempty,
                    "connectivity": r.verdict,
                    "components": r.components,
                }
                for r in reports
            ],
        },
    }
