"""Reference implementations used as independent test oracles.

Everything here is deliberately written from scratch (plain BFS and
brute-force dynamic programming) so package results are checked against
a second, unrelated code path.  The one exception is ``_adaptive_delta``,
the package's adaptive rule read one hop at a time from its run
(``circnoc.routing._adaptive_run``); ``ref_adaptive_delta`` checks it
against scans written from scratch, and ``ref_adaptive_walk`` follows it
on purpose, to check how routes are followed and stopped, not how each
step is chosen.
"""

from collections import deque

from circnoc.routing import _adaptive_run


def ref_bfs(neighbors, src):
    """BFS hop distances on an adjacency-list graph; -1 marks unreachable."""
    dist = [-1] * len(neighbors)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def ref_ring_profile(n, s2):
    """BFS distances from node 0 in C(n; 1, s2), built arithmetically."""
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for s in (1, s2, n - 1, n - s2):
            v = (u + s) % n
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def ref_table_walk(u, v, n, s2):
    """Table route from u to v in C(n; 1, s2), walked one hop at a time.

    Each hop leaves by the lowest port (0: +1, 1: +s2, 2: -1, 3: -s2)
    whose neighbour is one hop closer to v by ``ref_ring_profile``.
    Returns (nodes, ports).
    """
    profile = ref_ring_profile(n, s2)
    steps = (1, s2, -1, -s2)
    nodes, ports = [u], []
    while nodes[-1] != v:
        left = (v - nodes[-1]) % n
        port = next(p for p in range(4) if profile[(left - steps[p]) % n] == profile[left] - 1)
        ports.append(port)
        nodes.append((nodes[-1] + steps[port]) % n)
    return tuple(nodes), tuple(ports)


def ref_table_runs(n, s2):
    """The lowest-port walk from node 0 to every offset of C(n; 1, s2), as runs.

    One ``ref_ring_profile`` serves the whole ring.  The walk to offset d
    leaves by the lowest port whose neighbour is one hop closer, then goes
    on as the walk to what is left, which is one hop shorter: so offsets
    are filled in order of distance, and the first hop joins the run that
    follows when it has the same port.  Returns one flat (port, count)
    tuple per offset, () at offset 0.
    """
    profile = ref_ring_profile(n, s2)
    steps = (1, s2, -1, -s2)
    runs = [()] * n
    for d in sorted(range(1, n), key=profile.__getitem__):
        port = next(p for p in range(4) if profile[(d - steps[p]) % n] == profile[d] - 1)
        rest = runs[(d - steps[port]) % n]
        runs[d] = (port, rest[1] + 1) + rest[2:] if rest[:1] == (port,) else (port, 1) + rest
    return runs


def ref_clockwise_walk(u, v, n, s2):
    """Clockwise route from u to v in C(n; 1, s2), walked one hop at a time.

    With S = (v - current) mod n, a hop goes forward while 2S <= n, by s2
    while S >= s2 and by 1 otherwise; backward it goes by -s2 while
    n - S >= s2 and by -1 otherwise.  Returns (nodes, ports).
    """
    nodes, ports = [u], []
    while nodes[-1] != v:
        left = (v - nodes[-1]) % n
        if 2 * left <= n:
            port, step = (1, s2) if left >= s2 else (0, 1)
        else:
            port, step = (3, -s2) if n - left >= s2 else (2, -1)
        ports.append(port)
        nodes.append((nodes[-1] + step) % n)
    return tuple(nodes), tuple(ports)


def ref_pair_profile(n, s1, s2):
    """BFS distances from node 0 in C(n; s1, s2), built arithmetically."""
    neighbors = [{(v + s) % n for s in (s1, s2, -s1, -s2)} for v in range(n)]
    return ref_bfs(neighbors, 0)


def ref_neighbors(topology):
    """Neighbour sets of a circulant, mesh or torus, built from its definition.

    Circulant node v links to v + s and v - s mod n.  Grid node (r, c) is
    r * cols + c; each node links to the next one along its row and along
    its column, wrapping round on a torus, and every link is added both ways.
    """
    n = topology.n
    near = [set() for _ in range(n)]
    if topology.kind == "circulant":
        for v in range(n):
            for s in topology.generatrices:
                near[v].add((v + s) % n)
                near[v].add((v - s) % n)
        return near
    rows, cols = topology.rows, topology.cols
    wrap = topology.kind == "torus"
    for r in range(rows):
        for c in range(cols):
            ends = []
            if c + 1 < cols or wrap:
                ends.append((r, (c + 1) % cols))
            if r + 1 < rows or wrap:
                ends.append(((r + 1) % rows, c))
            for r2, c2 in ends:
                u, v = r * cols + c, r2 * cols + c2
                near[u].add(v)
                near[v].add(u)
    return near


def ref_metrics(neighbors):
    """(diameter, average distance over ordered pairs) by all-sources BFS."""
    n = len(neighbors)
    total = 0
    diameter = 0
    for src in range(n):
        dist = ref_bfs(neighbors, src)
        assert all(d >= 0 for d in dist)
        total += sum(dist)
        diameter = max(diameter, max(dist))
    return diameter, total / (n * (n - 1))


def dp_min_wraps(n, s2):
    """Minimum ring wraps over all shortest routes from 0, per destination.

    Tracks the set of net displacements reachable along shortest paths via
    layer-by-layer dynamic programming, then counts |displacement| // n.
    """
    profile = ref_ring_profile(n, s2)
    disp_sets = [set() for _ in range(n)]
    disp_sets[0].add(0)
    frontier = {0}
    for layer in range(max(profile)):
        nxt = set()
        for u in frontier:
            if profile[u] != layer:
                continue
            for s in (1, s2, -1, -s2):
                v = (u + s) % n
                if profile[v] == layer + 1:
                    disp_sets[v].update(d + s for d in disp_sets[u])
                    nxt.add(v)
        frontier = nxt
    return [min(abs(d) // n for d in disp_sets[v]) if v else 0 for v in range(n)]


def ref_ring_fill(n, lam, c, bound):
    """(diameter, total) of radii filled greedily up to the lattice cap.

    The cap of radius r is |B_r| less ceil((2r + 1 - lam)(2r + 1 - c) / 2)
    once 2r + 1 > lam, as ``circnoc.topology._lattice_floor`` counts it; the
    radii are walked one at a time up to ``bound`` (else bound + 1).
    """
    total = 0
    for r in range(bound + 1):
        side = 2 * r + 1
        cap = side * side // 2 + 1 - (max(side - lam, 0) * (side - c) + 1) // 2
        if cap >= n:
            return r, total
        total += n - cap
    return bound + 1, total


def ring_s2_values(n):
    """All second generatrices valid for routing in an n-node ring circulant."""
    return range(2, (n - 1) // 2 + 1)


def _ref_directional_best(base, n, s2, max_cycles):
    """Adaptive candidate scan of one direction: the unwrapped pair, then every
    wrap up to max_cycles, replacing the best only on strict improvement."""
    q, r = divmod(base, s2)
    first = q + r
    second = q - r + s2 + 1
    if r == 0:
        best, unit = first, False
    elif first < second:
        best, unit = first, True
    else:
        best, unit = second, False
    for m in range(1, max_cycles + 1):
        q, r = divmod(base + m * n, s2)
        first, second = q + r, q - r + s2 + 1
        if first < best:
            best, unit = first, False
        if second < best:
            best, unit = second, False
    return best, unit


def _adaptive_delta(current, dest, cfg, mode):
    """Adaptive routing rule: the signed step from current toward dest != current.

    The scan runs on the positive label difference S = |dest - current|:
    clockwise candidates grow from S, counter-clockwise ones from n - S
    (or S + n in printed mode), each extended by full wraps up to
    ``mode.max_cycles``.  A clockwise win gives +s1/+s2, otherwise the
    step is negative; ties go counter-clockwise.  The sign is mirrored
    when dest lies below current.  This is the first hop of the package's
    ``_adaptive_run``, which decides it once for the whole run.
    """
    return cfg.port_steps[_adaptive_run(dest - current, cfg, mode) & 3]


def ref_adaptive_delta(start, end, cfg, mode):
    """Signed adaptive step for start < end, from the two directional scans."""
    n = cfg.n
    s = end - start
    best_right, unit_right = _ref_directional_best(s, n, cfg.s2, mode.max_cycles)
    left_base = s + n if mode.variant == "printed" else n - s
    best_left, unit_left = _ref_directional_best(left_base, n, cfg.s2, mode.max_cycles)
    if best_right < best_left:
        return cfg.s1 if unit_right else cfg.s2
    return -(cfg.s1 if unit_left else cfg.s2)


def ref_chip_capacity(curves, algorithm, profile):
    """Chip capacity by an upward linear scan over router counts.

    The first count at which either resource overruns its budget ends the
    scan; its worst-overrun resource binds.  Returns (max_routers,
    binding_resource, alm_used, reg_used), the usage taken at
    max(max_routers, 1).  ``curves`` maps (algorithm, resource) to a cost curve.
    """
    curves = {r: curves[(algorithm, r)] for r in ("alm", "register")}
    budgets = {
        "alm": profile.budget_fraction * profile.alm_total,
        "register": profile.budget_fraction * profile.reg_total,
    }

    def overruns(x):
        usage = {r: curves[r].usage(x) for r in curves}
        return {r: usage[r] / budgets[r] for r in curves if usage[r] > budgets[r]}

    x = 1
    while not overruns(x):
        x += 1
    failed = overruns(x)
    used = max(x - 1, 1)
    return x - 1, max(failed, key=failed.get), curves["alm"].usage(used), curves["register"].usage(used)


def ref_adaptive_walk(u, v, cfg, mode):
    """Follow ``_adaptive_delta`` from u toward v, remembering every node.

    Returns ("path", nodes) on arrival, or ("cycle", nodes) from the first
    node visited twice back to it, as soon as the walk revisits a node.
    """
    visited = [u]
    while visited[-1] != v:
        nxt = (visited[-1] + _adaptive_delta(visited[-1], v, cfg, mode)) % cfg.n
        if nxt in visited:
            return "cycle", tuple(visited[visited.index(nxt):]) + (nxt,)
        visited.append(nxt)
    return "path", tuple(visited)
