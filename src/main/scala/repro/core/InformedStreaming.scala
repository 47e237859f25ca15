package repro.core

/** The HDRF scoring function of Petroni et al. (CIKM'15), shared by HEP's
  * informed streaming phase (Section 3.3) and the standalone HDRF baseline.
  *
  * `score(e=(u,v), p) = C_REP + C_BAL` with
  *  - `C_REP = g(u) + g(v)`, `g(x) = 1 + (1 - θ(x))` if x is already
  *    replicated on p else 0, `θ(u) = d(u) / (d(u) + d(v))`;
  *  - `C_BAL = λ * (maxLoad - load(p)) / (ε + maxLoad - minLoad)`.
  *
  * The paper's recommended `λ = 1.1` is the default everywhere.
  */
object HdrfScoring {
  val DefaultLambda = 1.1
  private val Eps = 1e-3

  def score(
      degU: Long, degV: Long,
      replicatedU: Boolean, replicatedV: Boolean,
      load: Long, minLoad: Long, maxLoad: Long,
      lambda: Double,
  ): Double = {
    val thetaU = if (degU + degV == 0) 0.5 else degU.toDouble / (degU + degV)
    val thetaV = 1.0 - thetaU
    val gU = if (replicatedU) 1.0 + (1.0 - thetaU) else 0.0
    val gV = if (replicatedV) 1.0 + (1.0 - thetaV) else 0.0
    val bal = lambda * (maxLoad - load).toDouble / (Eps + (maxLoad - minLoad).toDouble)
    gU + gV + bal
  }
}

/** Informed stateful streaming partitioning (Algorithm 4): places the h2h
  * edge stream with HDRF scoring, *seeded* with the NE++ phase's state — the
  * true vertex degrees from graph building, the per-partition replica sets
  * and the per-partition edge loads. This is how HEP escapes the
  * "uninformed assignment problem" of cold-started streaming partitioners.
  *
  * Mutates `pids`, `loads`, `replicas` in place, honouring the balancing
  * constraint `|p_i| <= ceil(alphaCap * |E| / k)` (candidates at capacity are
  * skipped; if every partition is full the least-loaded one is used).
  *
  * The result is the HDRF argmax over all `k` partitions (ties to the
  * smallest index), but only at most four partitions are scored per edge.
  * `C_REP` takes one value per replica class of a partition — both endpoints
  * replicated, only `u`, only `v`, neither — and `C_BAL` falls strictly as
  * the load rises (`lambda > 0`; for `|E| < 2^31` no two loads give the same
  * double). So the argmax is the best of each class's least-loaded
  * under-capacity member, smallest index first. The three replicated classes
  * come from per-vertex replica masks (`ceil(k/64)` words per streamed
  * endpoint); the smallest-index least-loaded partition stands for the
  * fourth, since if it is replicated its own class outscores it.
  */
final class InformedStreaming(
    g: GraphData,
    k: Int,
    pids: Array[Int],
    loads: Array[Long],
    replicas: Array[DenseBitset],
    lambda: Double = HdrfScoring.DefaultLambda,
    alphaCap: Double = 1.05,
) {
  require(k >= 1 && alphaCap >= 1.0, s"invalid k=$k / alphaCap=$alphaCap")
  require(lambda > 0 && lambda < Double.PositiveInfinity, s"lambda must be positive and finite, got $lambda")

  private val capacity: Long = math.ceil(alphaCap * g.nE / k.toDouble).toLong

  private var scored = 0L
  private var bitsVisited = 0L
  private var fallbackCount = 0L

  /** Partitions scored with [[HdrfScoring.score]] so far: at most 4 per edge. */
  def scoredPartitions: Long = scored

  /** Replica-mask bits walked so far to find the replicated classes' winners. */
  def maskBitsVisited: Long = bitsVisited

  /** Edges placed on the least-loaded partition because all were at capacity. */
  def fallbacks: Long = fallbackCount

  // Load summary, kept up to date as loads grow by one: the minimum and
  // maximum load, how many partitions sit at the minimum, and the smallest
  // index among them.
  private var minLoad = 0L
  private var maxLoad = 0L
  private var atMin = 0
  private var minIdx = 0

  // The edge's best candidate so far.
  private var best = -1
  private var bestScore = 0.0

  /** Stream the given edge ids (HEP passes the CSR's h2h buffer). */
  def run(edgeIds: Array[Int]): Unit = if (edgeIds.nonEmpty) {
    val deg = g.degrees
    val words = (k + 63) >>> 6

    // A slot per streamed endpoint and its replica mask: bit p of word
    // (p >>> 6) is set iff replicas(p) holds the endpoint.
    val slot = Partitioners.unassigned(g.nV)
    var nSlots = 0
    var i = 0
    while (i < edgeIds.length) {
      val eid = edgeIds(i)
      val u = g.src(eid); val v = g.dst(eid)
      if (slot(u) < 0) { slot(u) = nSlots; nSlots += 1 }
      if (slot(v) < 0) { slot(v) = nSlots; nSlots += 1 }
      i += 1
    }
    val masks = new Array[Long](Math.multiplyExact(nSlots, words))
    var x = 0
    while (x < g.nV) {
      if (slot(x) >= 0) {
        val base = slot(x) * words
        var p = 0
        while (p < k) {
          if (replicas(p).get(x)) masks(base + (p >>> 6)) |= 1L << (p & 63)
          p += 1
        }
      }
      x += 1
    }

    maxLoad = Long.MinValue
    var p = 0
    while (p < k) { if (loads(p) > maxLoad) maxLoad = loads(p); p += 1 }
    rescanMin()

    i = 0
    while (i < edgeIds.length) {
      val eid = edgeIds(i)
      val u = g.src(eid); val v = g.dst(eid)
      val bu = slot(u) * words; val bv = slot(v) * words
      var both = -1; var onlyU = -1; var onlyV = -1
      var w = 0
      while (w < words) {
        val mu = masks(bu + w); val mv = masks(bv + w)
        both = lightest(mu & mv, w << 6, both)
        onlyU = lightest(mu & ~mv, w << 6, onlyU)
        onlyV = lightest(mv & ~mu, w << 6, onlyV)
        w += 1
      }
      val du = deg(u).toLong; val dv = deg(v).toLong
      best = -1
      consider(both, du, dv, replicatedU = true, replicatedV = true)
      consider(onlyU, du, dv, replicatedU = true, replicatedV = false)
      consider(onlyV, du, dv, replicatedU = false, replicatedV = true)
      if (minLoad < capacity) consider(minIdx, du, dv, replicatedU = false, replicatedV = false)
      if (best < 0) { // every partition at capacity: fall back to least loaded
        best = minIdx
        fallbackCount += 1
      }
      require(pids(eid) < 0, s"edge $eid already assigned before streaming")
      val b = best
      pids(eid) = b
      addLoad(b)
      replicas(b).set(u)
      replicas(b).set(v)
      masks(bu + (b >>> 6)) |= 1L << (b & 63)
      masks(bv + (b >>> 6)) |= 1L << (b & 63)
      i += 1
    }
  }

  /** The least-loaded under-capacity partition among `current` and the set
    * bits of `bits` (partition `offset + bit`); ties keep the smaller index.
    */
  private def lightest(bits: Long, offset: Int, current: Int): Int = {
    bitsVisited += java.lang.Long.bitCount(bits)
    var b = bits
    var c = current
    while (b != 0L) {
      val p = offset + java.lang.Long.numberOfTrailingZeros(b)
      val l = loads(p)
      if (l < capacity && (c < 0 || l < loads(c))) c = p
      b &= b - 1
    }
    c
  }

  /** Score partition `p` (if any) and keep it if it beats the best so far;
    * equal scores go to the smaller index, as in a scan over all `k`.
    */
  private def consider(p: Int, du: Long, dv: Long, replicatedU: Boolean, replicatedV: Boolean): Unit =
    if (p >= 0) {
      val s = HdrfScoring.score(du, dv, replicatedU, replicatedV, loads(p), minLoad, maxLoad, lambda)
      scored += 1
      if (best < 0 || s > bestScore || (s == bestScore && p < best)) { best = p; bestScore = s }
    }

  /** `loads(b) += 1`, keeping the load summary current. The minimum only
    * rises, by at most `|E| / k` levels, and within a level `minIdx` only
    * moves up, so the scans below cost O(1) amortised per edge.
    */
  private def addLoad(b: Int): Unit = {
    val old = loads(b)
    loads(b) = old + 1
    if (old + 1 > maxLoad) maxLoad = old + 1
    if (old == minLoad) {
      atMin -= 1
      if (atMin == 0) rescanMin()
      else if (b == minIdx) {
        var q = b + 1
        while (loads(q) != minLoad) q += 1
        minIdx = q
      }
    }
  }

  private def rescanMin(): Unit = {
    minLoad = Long.MaxValue; atMin = 0; minIdx = -1
    var p = 0
    while (p < k) {
      val l = loads(p)
      if (l < minLoad) { minLoad = l; atMin = 1; minIdx = p }
      else if (l == minLoad) atMin += 1
      p += 1
    }
  }
}
