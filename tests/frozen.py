"""Frozen expected values shared across the test suite.

No published value lives here: a test reads a printed value from
``statecount.fixtures``, for example ``fixtures.XQ_KLIST``.  Two kinds of
constants do:

* recomputed values frozen after verification against the enumeration
  oracles, where the published print disagrees with its own construction,
  and the keys at which the print differs;
* full-board enumeration counts for small piece counts.
"""

# Recomputed light-stage counts by blank sites (oracle-confirmed at 86..88;
# every input cell of the convolution is oracle-confirmed on its full domain).
TRUE_XQ_KLIST = {
    70: 6072015837104228000,
    71: 13932273683634608000,
    72: 15301638556817299260,
    73: 10409937249476729400,
    74: 4843935567122301460,
    75: 1615822111183420352,
    76: 396618961521689328,
    77: 72835290347565052,
    78: 10196202623412212,
    79: 1118621289510936,
    80: 99802788901978,
    81: 7330671726156,
    82: 444595549080,
    83: 22199620332,
    84: 901427292,
    85: 28838016,
    86: 681624,
    87: 10584,
    88: 81,
}

# Printed entries that differ from the recomputation (all others agree).
XQ_KLIST_DIVERGENT = {72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 84, 86}

TRUE_XQ_TOTAL = 7583767311308936928441671793917387439659  # 40 digits

# Corrected eight-pair fill counts; printed entries 4 and 6..16 are garbled.
TRUE_JG_SLIST = [
    1, 8, 64, 504, 3864, 28560, 201600, 1345680, 8401680, 48444480,
    254016000, 1187524800, 4819953600, 16345929600, 43589145600,
    81729648000, 81729648000,
]
JG_SLIST_DIVERGENT = {4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

TRUE_JG_TOTAL = 2870116040986980773201799732849914138750908392  # 46 digits

# Full-board enumeration results for small piece counts (the final arbiter).
ENUM_XQ_SMALL = {2: 81, 3: 10584, 4: 681624}
ENUM_JG_SMALL = {2: 81, 3: 11340, 4: 783918}
