package repro

import repro.core.GraphData
import scala.util.Random

/** Driver-side test graph builders (no Spark needed) for partitioner
  * invariant tests. All graphs are simple: no self loops, each undirected
  * edge present once, canonicalised src < dst unless stated otherwise.
  */
object TestGraphs {

  /** Uniform random simple graph. */
  def random(nV: Int, nE: Int, seed: Long): GraphData = {
    val rnd = new Random(seed)
    val seen = scala.collection.mutable.Set.empty[Long]
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var guard = 0
    while (edges.length < nE && guard < nE * 50) {
      val a = rnd.nextInt(nV); val b = rnd.nextInt(nV)
      if (a != b) {
        val (u, v) = if (a < b) (a, b) else (b, a)
        val key = (u.toLong << 32) | v
        if (!seen.contains(key)) { seen += key; edges += ((u, v)) }
      }
      guard += 1
    }
    GraphData.fromEdges(nV, edges.toSeq)
  }

  /** Power-law-ish random simple graph: endpoint density ∝ rank^(1/γ − 1). */
  def powerLaw(nV: Int, nE: Int, gamma: Double, seed: Long): GraphData = {
    val rnd = new Random(seed)
    def draw(): Int = math.min(nV - 1, (math.pow(rnd.nextDouble(), gamma) * nV).toInt)
    val seen = scala.collection.mutable.Set.empty[Long]
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var guard = 0
    while (edges.length < nE && guard < nE * 50) {
      val a = draw(); val b = draw()
      if (a != b) {
        val (u, v) = if (a < b) (a, b) else (b, a)
        val key = (u.toLong << 32) | v
        if (!seen.contains(key)) { seen += key; edges += ((u, v)) }
      }
      guard += 1
    }
    GraphData.fromEdges(nV, edges.toSeq)
  }

  /** Star: vertex 0 is the hub of `nLeaves` leaves (the paper's Figure 1). */
  def star(nLeaves: Int): GraphData =
    GraphData.fromEdges(nLeaves + 1, (1 to nLeaves).map(v => (0, v)))

  /** Path 0 − 1 − … − (n−1). */
  def path(n: Int): GraphData =
    GraphData.fromEdges(n, (0 until n - 1).map(v => (v, v + 1)))

  /** Complete graph on `s` vertices. */
  def clique(s: Int): GraphData =
    GraphData.fromEdges(s, for (i <- 0 until s; j <- i + 1 until s) yield (i, j))

  /** Two disconnected cliques of size `s` each. */
  def twoCliques(s: Int): GraphData = {
    val edges = for {
      base <- Seq(0, s); i <- 0 until s; j <- i + 1 until s
    } yield (base + i, base + j)
    GraphData.fromEdges(2 * s, edges)
  }

  /** The paper's Figure 4 example graph: 9 vertices, 11 undirected edges,
    * mean degree 2.44; at τ = 1.5 exactly v4 (degree 4) and v5 (degree 5)
    * are high-degree, (v4, v5) is the single h2h edge, and the pruned
    * column array has 13 entries (22 in the unpruned CSR).
    */
  def figure4: GraphData = GraphData.fromEdges(9, Seq(
    (4, 5),         // the h2h edge
    (4, 0), (4, 1), (4, 2),
    (5, 3), (5, 6), (5, 7), (5, 8),
    (0, 7), (1, 6), (2, 3),
  ))
}
