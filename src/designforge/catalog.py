"""Embedded catalog of known witnesses, re-verified on demand.

Tables are transcribed verbatim from the published listings (negative
residues normalized into [0, v) at load).  Transcription slips are meant to
surface as check failures, never to be silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import PairSet, PPSSpec, verify_pps
from .designs import INF, develop_rounds, verify_whist

# Primes p = 7 (mod 8) below 272 for which 1 + sqrt(2) generates the units of
# Z_p up to sign (so the power-chain APS construction applies).
SILVER_PRIMES = (7, 23, 31, 47, 71, 127, 151, 167, 191, 263, 271)

# Primes p = 7 (mod 8) below 2000 for which 1 + sqrt(2) generates the units
# of Z_{p^2} up to sign (the prime-square chain applies; note 31 is absent).
SILVER_SQUARE_PRIMES = (
    7, 23, 47, 71, 127, 151, 167, 191, 263, 271, 311, 359, 367, 383, 431, 439,
    463, 479, 503, 631, 647, 719, 727, 743, 823, 839, 863, 887, 911, 919, 967,
    983, 991, 1039, 1063, 1087, 1103, 1223, 1231, 1303, 1319, 1367, 1439, 1487,
    1511, 1543, 1559, 1567, 1583, 1607, 1663, 1759, 1783, 1823, 1831, 1847,
    1871, 1951, 1999,
)

# Hand-picked witnesses for the two-prime cyclotomic tiling at small primes
# (below the class-pattern bound 45.86): p-side (x1, y1) and q-side (x2, y2).
CYCLOTOMIC_WITNESSES_P = {11: (1, 3), 19: (1, 4), 23: (1, 8), 31: (1, 4), 43: (1, 9)}
CYCLOTOMIC_WITNESSES_Q = {7: (1, 3), 11: (1, 2), 19: (1, 8), 23: (1, 5), 31: (1, 3)}

_PS13 = ((1, 5), (2, 3), (4, 6))

_APS27_3_6 = ((1, 4), (2, 12), (5, 13), (6, 10), (7, 8), (9, 11))

# Extracted from the first two seats of the 28-player starter round below.
_APS27_3_3 = ((4, 5), (6, 10), (11, 9), (12, 7), (8, 2), (13, 1))

_PS133 = (
    (122, 2), (121, 111), (132, 109), (100, 4), (97, 89), (130, 85), (78, 13),
    (73, 123), (128, 110), (67, 27), (61, 102), (127, 75), (56, 18), (49, 68),
    (126, 50), (46, 40), (26, 92), (113, 52), (79, 30), (62, 69), (116, 39),
    (112, 57), (98, 38), (119, 114), (101, 53), (86, 82), (118, 29), (90, 63),
    (74, 105), (117, 42), (45, 34), (37, 25), (125, 124),
)

# The 11 orbit representatives that develop into _PS133 under the order-6
# multiplier group generated by 122.
PS133_INITIAL_PAIRS = (
    (122, 2), (100, 4), (78, 13), (67, 27), (56, 18), (46, 40), (79, 30),
    (112, 57), (101, 53), (90, 63), (45, 34),
)

_APS651 = (
    (68, 3), (67, 204), (650, 201), (136, 6), (134, 408), (649, 402), (272, 9),
    (268, 612), (647, 603), (340, 10), (335, 29), (646, 19), (476, 61),
    (469, 242), (644, 181), (544, 11), (536, 97), (643, 86), (165, 24),
    (153, 330), (639, 306), (233, 178), (220, 386), (638, 208), (301, 60),
    (287, 174), (637, 114), (369, 127), (354, 173), (636, 46), (437, 102),
    (421, 426), (635, 324), (505, 51), (488, 213), (634, 162), (58, 43),
    (38, 320), (631, 277), (573, 210), (555, 609), (633, 399), (126, 45),
    (105, 456), (630, 411), (194, 89), (172, 193), (629, 104), (398, 31),
    (373, 155), (626, 124), (262, 185), (239, 211), (628, 26), (534, 66),
    (507, 582), (624, 516), (602, 142), (574, 542), (623, 400), (87, 74),
    (57, 475), (621, 401), (223, 92), (191, 397), (619, 305), (291, 84),
    (258, 504), (618, 420), (427, 184), (392, 143), (616, 610), (563, 232),
    (526, 152), (614, 571), (359, 55), (325, 485), (617, 430), (145, 280),
    (95, 161), (601, 532), (116, 183), (76, 75), (611, 543), (495, 149),
    (459, 367), (615, 218), (388, 79), (344, 164), (607, 85), (349, 54),
    (296, 417), (598, 363), (281, 285), (229, 501), (599, 216), (592, 133),
    (545, 581), (604, 448), (553, 72), (497, 339), (595, 267), (271, 215),
    (200, 298), (580, 83), (494, 177), (391, 318), (548, 141), (513, 160),
    (381, 464), (519, 304), (378, 308), (315, 112), (588, 455), (484, 206),
    (362, 337), (529, 131), (446, 207), (382, 405), (587, 198), (357, 179),
    (189, 454), (483, 275), (300, 91), (219, 329), (570, 238), (523, 295),
    (410, 530), (538, 235), (465, 99), (372, 222), (558, 123), (261, 227),
    (171, 463), (561, 236), (338, 266), (199, 511), (512, 245), (407, 255),
    (334, 414), (578, 159), (358, 274), (257, 404), (550, 130), (310, 111),
    (248, 387), (589, 276), (514, 190), (449, 551), (586, 361), (319, 228),
    (209, 531), (541, 303), (309, 169), (180, 425), (522, 256), (368, 158),
    (286, 328), (569, 170), (533, 151), (439, 503), (557, 352),
)

# The 54 orbit representatives that develop into _APS651 under the order-6
# multiplier group generated by 68.
APS651_INITIAL_PAIRS = (
    (68, 3), (136, 6), (272, 9), (340, 10), (476, 61), (544, 11), (165, 24),
    (233, 178), (301, 60), (369, 127), (437, 102), (505, 51), (58, 43),
    (573, 210), (126, 45), (194, 89), (398, 31), (262, 185), (534, 66),
    (602, 142), (87, 74), (223, 92), (291, 84), (427, 184), (563, 232),
    (359, 55), (145, 280), (116, 183), (495, 149), (388, 79), (349, 54),
    (281, 285), (592, 133), (553, 72), (271, 215), (494, 177), (513, 160),
    (378, 308), (484, 206), (446, 207), (357, 179), (300, 91), (523, 295),
    (465, 99), (261, 227), (338, 266), (407, 255), (358, 274), (310, 111),
    (514, 190), (319, 228), (309, 169), (368, 158), (533, 151),
)

_APS243 = (
    (1, 2), (63, 99), (7, 13), (3, 29), (8, 37), (5, 54), (10, 68), (9, 84),
    (11, 101), (12, 73), (14, 111), (17, 33), (16, 103), (15, 77), (19, 85),
    (20, 53), (21, 93), (25, 119), (26, 30), (27, 38), (32, 56), (36, 96),
    (28, 67), (35, 98), (39, 106), (34, 118), (42, 79), (51, 86), (40, 87),
    (57, 100), (61, 80), (52, 109), (55, 83), (58, 89), (72, 102), (114, 121),
    (41, 95), (66, 88), (45, 115), (49, 74), (4, 6), (50, 90), (64, 108),
    (112, 117), (46, 120), (94, 107), (47, 81), (62, 113), (43, 91), (70, 97),
    (44, 82), (71, 92), (59, 105), (48, 65), (60, 75), (22, 31), (23, 78),
    (24, 76), (69, 110), (104, 116),
)

_APS255 = (
    (1, 2), (3, 9), (4, 17), (5, 27), (6, 37), (7, 52), (8, 62), (10, 105),
    (11, 83), (12, 119), (14, 55), (13, 93), (15, 123), (21, 61), (16, 87),
    (18, 29), (19, 33), (20, 76), (22, 71), (23, 127), (24, 112), (31, 66),
    (28, 56), (25, 89), (30, 45), (26, 109), (32, 110), (39, 47), (34, 94),
    (35, 122), (41, 96), (49, 114), (36, 98), (40, 90), (57, 99), (50, 126),
    (78, 104), (103, 108), (69, 120), (51, 58), (64, 91), (75, 113), (42, 60),
    (86, 88), (65, 101), (68, 97), (72, 106), (79, 118), (48, 116), (115, 124),
    (53, 73), (74, 107), (63, 82), (46, 70), (117, 121), (92, 102), (44, 67),
    (43, 80), (77, 125), (54, 100), (59, 84), (81, 111), (38, 95),
)

_APS275 = (
    (1, 2), (3, 25), (4, 6), (5, 13), (7, 36), (8, 52), (9, 71), (10, 131),
    (11, 90), (12, 79), (14, 112), (15, 48), (16, 73), (17, 111), (18, 121),
    (19, 53), (20, 34), (21, 28), (22, 109), (23, 119), (24, 75), (26, 96),
    (27, 100), (29, 84), (30, 89), (31, 54), (32, 43), (33, 59), (35, 39),
    (37, 127), (38, 135), (40, 128), (41, 97), (42, 88), (44, 80), (45, 126),
    (46, 124), (47, 82), (49, 118), (50, 116), (51, 101), (55, 108), (56, 133),
    (57, 102), (58, 77), (60, 98), (61, 132), (62, 99), (63, 69), (64, 105),
    (65, 117), (66, 91), (67, 83), (68, 92), (70, 85), (72, 120), (74, 106),
    (76, 123), (78, 136), (81, 94), (86, 125), (87, 104), (93, 114), (95, 115),
    (103, 130), (107, 137), (113, 122), (129, 134),
)

_WH13_ROUND = ((1, 5, -1, -5), (2, 3, -2, -3), (4, 6, -4, -6))

_WH28_ROUND = (
    (INF, 3, 0, -3), (4, 5, -4, -5), (6, 10, -6, -10), (11, 9, -11, -9),
    (12, 7, -12, -7), (8, 2, -8, -2), (13, 1, -13, -1),
)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # PS | APS | PPS | Wh | OOC
    params: dict[str, Any]
    data: tuple
    provenance: str

    def pair_set(self) -> PairSet:
        if self.kind not in ("PS", "APS", "PPS"):
            raise ValueError(f"entry {self.id} is not a pair set")
        return PairSet(self.params["v"], self.data)

    def spec(self) -> PPSSpec:
        v = self.params["v"]
        if self.kind == "PS":
            return PPSSpec.ps(v)
        if self.kind == "APS":
            return PPSSpec.aps(v, self.params["alpha"], self.params["beta"])
        raise ValueError(f"entry {self.id} carries no pair-set spec")

    def games(self) -> tuple:
        if self.kind != "Wh":
            raise ValueError(f"entry {self.id} is not a round of games")
        u = self.params["u"]
        return tuple(
            tuple(seat if seat == INF else seat % u for seat in g) for g in self.data)

    def verify(self) -> bool:
        """Re-derive the entry's claim from scratch."""
        if self.kind in ("PS", "APS"):
            return verify_pps(self.pair_set(), self.spec()).valid
        if self.kind == "Wh":
            tournament = develop_rounds(self.games(), self.params["u"])
            results = verify_whist(tournament, ("basic", "zcps"))
            return all(r.passed for r in results.values())
        raise ValueError(f"no verifier for catalog kind {self.kind}")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "data": [list(row) for row in self.data],
            "provenance": self.provenance,
        }


ENTRIES: dict[str, CatalogEntry] = {
    e.id: e
    for e in (
        CatalogEntry("ps-13", "PS", {"v": 13}, _PS13,
                     "classical 13-player patterned-starter round, first two seats"),
        CatalogEntry("aps-27-3-6", "APS", {"v": 27, "alpha": 3, "beta": 6}, _APS27_3_6,
                     "published six-pair witness over Z_27"),
        CatalogEntry("aps-27-3-3", "APS", {"v": 27, "alpha": 3, "beta": 3}, _APS27_3_3,
                     "extracted from the 28-player patterned-starter round"),
        CatalogEntry("ps-133", "PS", {"v": 133}, _PS133,
                     "exact-cover search under the multiplier group <122> on Z_133"),
        CatalogEntry("aps-651-217", "APS", {"v": 651, "alpha": 217, "beta": 217}, _APS651,
                     "exact-cover search under the multiplier group <68> on Z_651"),
        CatalogEntry("aps-243-18", "APS", {"v": 243, "alpha": 18, "beta": 18}, _APS243,
                     "exact-cover search under the sign group on Z_243"),
        CatalogEntry("aps-255-85", "APS", {"v": 255, "alpha": 85, "beta": 85}, _APS255,
                     "exact-cover search under the sign group on Z_255"),
        CatalogEntry("aps-275-110", "APS", {"v": 275, "alpha": 110, "beta": 110}, _APS275,
                     "exact-cover search under the sign group on Z_275"),
        CatalogEntry("wh-13-round", "Wh", {"v": 13, "u": 13}, _WH13_ROUND,
                     "classical 13-player patterned-starter initial round"),
        CatalogEntry("wh-28-round", "Wh", {"v": 28, "u": 27}, _WH28_ROUND,
                     "classical 28-player patterned-starter initial round"),
    )
}


def get(entry_id: str) -> CatalogEntry:
    try:
        return ENTRIES[entry_id]
    except KeyError:
        raise KeyError(f"no catalog entry named {entry_id!r}; "
                       f"known: {', '.join(sorted(ENTRIES))}") from None


def ids() -> list[str]:
    return sorted(ENTRIES)


def check_all() -> dict[str, bool]:
    return {entry_id: ENTRIES[entry_id].verify() for entry_id in ids()}
