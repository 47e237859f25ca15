package repro.perfbench

import java.util.SplittableRandom

import repro.core.GraphData

/** Seeded, driver-side input generators. They draw from the same
  * distributions as `repro.SynthGraphs` (power-law endpoints ∝ U^γ for the
  * social proxy; id-local pairs plus a small hub layer for the web proxy),
  * but from one `SplittableRandom`, so a seed names the same graph on every
  * machine whatever the Spark parallelism.
  *
  * Both emit a simple undirected edge list in generation order: no self
  * loops, each pair once, `src < dst`, vertex ids remapped densely onto the
  * ids that occur (order-preserving, so web locality survives).
  */
object Inputs {

  /** `nVRaw` raw ids, up to `1.6 * targetE` draws, both endpoints ∝ U^γ. */
  def powerLaw(seed: Long, nVRaw: Int, targetE: Int, gamma: Double): GraphData = {
    val rnd = new SplittableRandom(seed)
    simple(nVRaw, targetE) { () =>
      val a = (math.pow(rnd.nextDouble(), gamma) * nVRaw).toInt
      val b = (math.pow(rnd.nextDouble(), gamma) * nVRaw).toInt
      pair(a, b)
    }
  }

  /** `1 - hubFrac` of the draws join ids at most `window` apart; the rest
    * point at one of `nHubs` hubs, skewed towards the lowest ids.
    */
  def web(seed: Long, nVRaw: Int, targetE: Int, window: Int, hubFrac: Double,
          nHubs: Int): GraphData = {
    val rnd = new SplittableRandom(seed)
    simple(nVRaw, targetE) { () =>
      val a = (rnd.nextDouble() * nVRaw).toInt
      val u = rnd.nextDouble(); val w = rnd.nextDouble(); val h = rnd.nextDouble()
      val b =
        if (u < hubFrac) (math.pow(h, 2.5) * nHubs).toInt
        else (a + 1 + (w * window).toInt) % nVRaw
      pair(a, b)
    }
  }

  /** Canonical key of an undirected pair, or -1 for a self loop. */
  private def pair(a: Int, b: Int): Long =
    if (a == b) -1L else (math.min(a, b).toLong << 32) | math.max(a, b).toLong

  /** Keep the first `targetE` distinct pairs of at most `1.6 * targetE`
    * draws, then remap ids densely.
    */
  private def simple(nVRaw: Int, targetE: Int)(draw: () => Long): GraphData = {
    val keys = new Array[Long](targetE)
    val seen = new LongSet(targetE)
    val draws = (targetE * 1.6).toLong
    var n = 0; var i = 0L
    while (i < draws && n < targetE) {
      val key = draw()
      if (key >= 0 && seen.add(key)) { keys(n) = key; n += 1 }
      i += 1
    }
    val rank = new Array[Int](nVRaw)
    var e = 0
    while (e < n) { rank((keys(e) >>> 32).toInt) = 1; rank(keys(e).toInt) = 1; e += 1 }
    var nV = 0; var v = 0
    while (v < nVRaw) { val present = rank(v); rank(v) = nV; nV += present; v += 1 }
    val src = new Array[Int](n); val dst = new Array[Int](n)
    e = 0
    while (e < n) { src(e) = rank((keys(e) >>> 32).toInt); dst(e) = rank(keys(e).toInt); e += 1 }
    new GraphData(nV, src, dst)
  }

  /** Insert-only open-addressing set of non-negative longs (0 never occurs
    * as a key: `dst > src >= 0`).
    */
  private final class LongSet(expected: Int) {
    private val table = new Array[Long](Integer.highestOneBit(math.max(4, expected) * 2) * 2)
    private val mask = table.length - 1

    def add(key: Long): Boolean = {
      var i = mix(key).toInt & mask
      while (table(i) != 0L) {
        if (table(i) == key) return false
        i = (i + 1) & mask
      }
      table(i) = key
      true
    }
  }

  /** SplitMix64 finaliser. */
  def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Order-sensitive hash of an int array. */
  def hash(xs: Array[Int]): Long = {
    var h = 0x243f6a8885a308d3L
    var i = 0
    while (i < xs.length) { h = mix(h ^ (xs(i).toLong + i.toLong * 0x9e3779b97f4a7c15L)); i += 1 }
    h
  }

  /** Graph fingerprint: |V|, |E| and an order-sensitive edge hash. */
  def fingerprint(g: GraphData): String =
    f"|V|=${g.nV} |E|=${g.nE} edges=${hash(g.src) ^ java.lang.Long.rotateLeft(hash(g.dst), 17)}%016x"

  /** The generators' contract, checked on every generated graph: simple,
    * canonical (`src < dst`), ids dense in `[0, nV)`, no vertex unused.
    */
  def checkSimple(g: GraphData): Unit = {
    val seen = new LongSet(g.nE)
    val used = new Array[Boolean](g.nV)
    var e = 0
    while (e < g.nE) {
      val s = g.src(e); val d = g.dst(e)
      require(s >= 0 && s < d && d < g.nV, s"edge $e ($s,$d) is not canonical in [0,${g.nV})")
      require(seen.add((s.toLong << 32) | d), s"edge $e ($s,$d) is a duplicate")
      used(s) = true; used(d) = true
      e += 1
    }
    require(used.forall(identity), "vertex ids are not dense")
  }

  /** Connected components by union-find with path halving (the reference
    * for GraphX's `connectedComponents`).
    */
  def componentCount(g: GraphData): Int = {
    val parent = Array.tabulate(g.nV)(identity)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    var comps = g.nV
    var e = 0
    while (e < g.nE) {
      val a = find(g.src(e)); val b = find(g.dst(e))
      if (a != b) { parent(a) = b; comps -= 1 }
      e += 1
    }
    comps
  }
}
