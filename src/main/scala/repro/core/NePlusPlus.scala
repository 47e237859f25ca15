package repro.core

/** How assigned edges are invalidated during neighbourhood expansion.
  *
  *  - [[EdgeRemoval.Lazy]] — NE++ (Section 3.2.2): nothing is touched during
  *    an expansion; after each partition a clean-up pass swap-removes, from
  *    the adjacency lists of the vertices still in `S_i`, every entry whose
  *    edge was assigned (neighbour in `C ∪ S_i` or high-degree).
  *  - [[EdgeRemoval.Eager]] — the reference-NE behaviour the paper
  *    criticises: a per-edge validity flag (here: `pids(e) >= 0`) consulted
  *    on *every* adjacency traversal, with no physical removal. This is what
  *    makes baseline NE slower and bigger.
  */
sealed trait EdgeRemoval
object EdgeRemoval {
  case object Lazy extends EdgeRemoval
  case object Eager extends EdgeRemoval
}

/** The in-memory neighbourhood-expansion phase of HEP (Algorithms 1–3 of the
  * paper), generalised so that the plain-NE baseline is the same engine with
  * `removal = Eager` over an unpruned CSR.
  *
  * Faithfulness notes (see DESIGN.md §2):
  *  - high-degree vertices are treated as *a-priori members of the secondary
  *    set*: an edge to one is assigned the moment its low-degree endpoint
  *    joins `C ∪ S_i`, and high-degree vertices never enter the heap;
  *  - the expansion of partition `i` picks the secondary vertex with minimum
  *    external degree from an indexed min-heap; when the heap drains, a new
  *    seed is found by a monotone sequential id scan (Section 3.2.3);
  *  - when partition `i` reaches the adapted capacity bound
  *    `⌈|E \ E_h2h| / k⌉`, further edges spill to the next not-full
  *    partition;
  *  - the last partition is built by Algorithm 3: every remaining valid
  *    entry is an unassigned edge, assigned from the out-list of its
  *    low-degree left-hand vertex (plus in-entries from high-degree
  *    neighbours, which exist only on the low-degree side).
  *
  * The engine mutates `pids`, `loads` and `replicas` in place so that the
  * streaming phase continues from the same state (Section 3.3).
  */
final class NePlusPlus(
    csr: PrunedCsr,
    k: Int,
    pids: Array[Int],
    loads: Array[Long],
    replicas: Array[DenseBitset],
    removal: EdgeRemoval,
) {
  require(k >= 1, s"k must be >= 1, got $k")
  private val g = csr.g
  private val eager = removal == EdgeRemoval.Eager

  private val core = new DenseBitset(g.nV)
  private val secondary = new DenseBitset(g.nV)
  // S_i in insertion order; a vertex joins S_i at most once per partition.
  private val members = new Array[Int](g.nV)
  private var memberCount = 0
  private val heap = new IndexedMinHeap(g.nV)

  /** Adapted capacity bound (Section 3.2.3): in-memory edges are spread over
    * the k partitions; h2h edges are the streaming phase's budget.
    */
  val capacity: Long =
    if (k == 1) Long.MaxValue
    else (csr.inMemEdgeCount.toLong + k - 1) / k

  private var assigned = 0L
  private var seedPtr = 0

  /** Vertices moved to the core set (exposed for tests/diagnostics). */
  def coreSize: Int = core.cardinality

  /** Run the complete in-memory phase. */
  def run(): Unit = {
    val total = csr.inMemEdgeCount.toLong
    var i = 0
    while (i < k - 1 && assigned < total) {
      expand(i)
      if (!eager) cleanUp()
      resetSecondary()
      i += 1
    }
    if (assigned < total) assignRemaining(k - 1)
    require(assigned == total,
      s"in-memory phase assigned $assigned of $total edges")
  }

  // -- expansion -------------------------------------------------------------

  private def expand(i: Int): Unit = {
    val total = csr.inMemEdgeCount.toLong
    var exhausted = false
    while (!exhausted && loads(i) < capacity && assigned < total) {
      if (heap.nonEmpty) moveToCore(heap.popMin(), i)
      else {
        val s = nextSeed()
        if (s < 0) exhausted = true else moveToCore(s, i)
      }
    }
  }

  /** Sequential-scan initialisation (Section 3.2.3): a vertex rejected once
    * can never become suitable again (its valid degree only shrinks and the
    * core set only grows), so the pointer never revisits.
    */
  private def nextSeed(): Int = {
    while (seedPtr < g.nV) {
      val v = seedPtr
      if (!core.get(v) && !csr.isHigh(v) && hasUnassignedEdge(v)) return v
      seedPtr += 1
    }
    -1
  }

  private def hasUnassignedEdge(v: Int): Boolean =
    if (!eager) csr.validDegree(v) > 0
    else {
      // reference-NE inefficiency: must scan the flags
      var idx = csr.outStart(v); var end = idx + csr.outSize(v)
      while (idx < end) { if (pids(csr.eidAt(idx)) < 0) return true; idx += 1 }
      idx = csr.inStart(v); end = idx + csr.inSize(v)
      while (idx < end) { if (pids(csr.eidAt(idx)) < 0) return true; idx += 1 }
      false
    }

  private def moveToCore(v: Int, i: Int): Unit = {
    if (secondary.get(v)) secondary.clear(v)
    else secondaryWork(v, i, insertHeap = false) // fresh seed: assign its C/S/high edges first
    core.set(v)
    // move external low-degree neighbours into the secondary set
    var idx = csr.outStart(v); var end = idx + csr.outSize(v)
    while (idx < end) { coreNeighbour(csr.nbrAt(idx), csr.eidAt(idx), i); idx += 1 }
    idx = csr.inStart(v); end = idx + csr.inSize(v)
    while (idx < end) { coreNeighbour(csr.nbrAt(idx), csr.eidAt(idx), i); idx += 1 }
  }

  private def coreNeighbour(u: Int, eid: Int, i: Int): Unit = {
    if (!(eager && pids(eid) >= 0) &&
        !csr.isHigh(u) && !core.get(u) && !secondary.get(u)) {
      secondaryWork(u, i, insertHeap = true)
    }
  }

  /** Move `v` into `S_i`: assign every edge towards `C ∪ S_i ∪ V_h`,
    * decrement the external degree of affected heap members, then insert `v`
    * with its own external degree.
    */
  private def secondaryWork(v: Int, i: Int, insertHeap: Boolean): Unit = {
    var dext = 0
    var idx = csr.outStart(v); var end = idx + csr.outSize(v)
    while (idx < end) {
      dext += secondaryEntry(v, csr.nbrAt(idx), csr.eidAt(idx), i)
      idx += 1
    }
    idx = csr.inStart(v); end = idx + csr.inSize(v)
    while (idx < end) {
      dext += secondaryEntry(v, csr.nbrAt(idx), csr.eidAt(idx), i)
      idx += 1
    }
    secondary.set(v)
    members(memberCount) = v
    memberCount += 1
    if (insertHeap) heap.insert(v, dext)
  }

  /** Returns 1 when the neighbour is external (counts towards d_ext). */
  private def secondaryEntry(v: Int, u: Int, eid: Int, i: Int): Int = {
    if (eager && pids(eid) >= 0) 0
    else if (core.get(u) || secondary.get(u) || csr.isHigh(u)) {
      assignEdge(eid, v, u, i)
      if (heap.contains(u)) heap.decrease(u)
      0
    } else 1
  }

  /** Assign with cascading spill-over past full partitions (Algorithm 1,
    * lines 26–28).
    */
  private def assignEdge(eid: Int, a: Int, b: Int, i: Int): Unit = {
    require(pids(eid) < 0, s"double assignment of edge $eid")
    var p = i
    while (p < k - 1 && loads(p) >= capacity) p += 1
    pids(eid) = p
    loads(p) += 1
    assigned += 1
    replicas(p).set(a)
    replicas(p).set(b)
  }

  // -- lazy clean-up (Algorithm 2) -------------------------------------------

  private def cleanUp(): Unit = {
    var m = 0
    while (m < memberCount) {
      val v = members(m)
      if (secondary.get(v)) { // skip members later promoted to the core
        var idx = csr.outStart(v)
        while (idx < csr.outStart(v) + csr.outSize(v)) {
          val u = csr.nbrAt(idx)
          if (core.get(u) || secondary.get(u) || csr.isHigh(u)) csr.removeOutAt(v, idx)
          else idx += 1
        }
        idx = csr.inStart(v)
        while (idx < csr.inStart(v) + csr.inSize(v)) {
          val u = csr.nbrAt(idx)
          if (core.get(u) || secondary.get(u) || csr.isHigh(u)) csr.removeInAt(v, idx)
          else idx += 1
        }
      }
      m += 1
    }
  }

  private def resetSecondary(): Unit = {
    var m = 0
    while (m < memberCount) { secondary.clear(members(m)); m += 1 }
    memberCount = 0
    heap.clear()
  }

  // -- last partition (Algorithm 3) ------------------------------------------

  private def assignRemaining(last: Int): Unit = {
    var v = 0
    while (v < g.nV) {
      if (!core.get(v) && !csr.isHigh(v)) {
        var idx = csr.outStart(v); var end = idx + csr.outSize(v)
        while (idx < end) {
          val eid = csr.eidAt(idx)
          if (!(eager && pids(eid) >= 0)) assignLast(eid, v, csr.nbrAt(idx), last)
          idx += 1
        }
        idx = csr.inStart(v); end = idx + csr.inSize(v)
        while (idx < end) {
          val u = csr.nbrAt(idx); val eid = csr.eidAt(idx)
          // low/low in-entries are covered from the neighbour's out-list;
          // low/high edges exist only on this (low) side.
          if (csr.isHigh(u) && !(eager && pids(eid) >= 0)) assignLast(eid, v, u, last)
          idx += 1
        }
      }
      v += 1
    }
  }

  private def assignLast(eid: Int, a: Int, b: Int, last: Int): Unit = {
    require(pids(eid) < 0, s"double assignment of edge $eid in last partition")
    pids(eid) = last
    loads(last) += 1
    assigned += 1
    replicas(last).set(a)
    replicas(last).set(b)
  }
}
