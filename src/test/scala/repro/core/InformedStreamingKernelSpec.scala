package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.util.Random

/** Differential test: [[InformedStreaming]] must leave exactly the pids,
  * loads and replica bitsets that the O(k) reference loop leaves, from cold
  * and from NE++-seeded state, for k on both sides of the 64-bit word size.
  */
class InformedStreamingKernelSpec extends AnyFunSuite {

  private final class State(val pids: Array[Int], val loads: Array[Long], val replicas: Array[DenseBitset]) {
    def duplicate(nV: Int): State = new State(pids.clone(), loads.clone(), replicas.map { r =>
      val c = new DenseBitset(nV)
      (0 until nV).foreach(x => if (r.get(x)) c.set(x))
      c
    })
  }

  private def cold(g: GraphData, k: Int) =
    new State(Array.fill(g.nE)(-1), new Array[Long](k), Array.fill(k)(new DenseBitset(g.nV)))

  private val ks = Seq(1, 2, 3, 63, 64, 65, 128, 130)

  private val graphs = Seq(
    "random" -> TestGraphs.random(300, 2500, seed = 31),
    "power-law" -> TestGraphs.powerLaw(400, 3000, gamma = 3.0, seed = 32),
  )

  /** Run both implementations on copies of `start`; return the kernel. */
  private def assertSame(g: GraphData, k: Int, start: State, edgeIds: Array[Int],
      alphaCap: Double = 1.05, clue: String = ""): InformedStreaming = {
    val ref = start.duplicate(g.nV)
    val got = start.duplicate(g.nV)
    new ReferenceInformedStreaming(g, k, ref.pids, ref.loads, ref.replicas, alphaCap = alphaCap).run(edgeIds)
    val kernel = new InformedStreaming(g, k, got.pids, got.loads, got.replicas, alphaCap = alphaCap)
    kernel.run(edgeIds)
    assert(got.pids.sameElements(ref.pids), s"pids differ $clue")
    assert(got.loads.sameElements(ref.loads), s"loads differ $clue")
    (0 until k).foreach { p =>
      assert((0 until g.nV).forall(x => got.replicas(p).get(x) == ref.replicas(p).get(x)),
        s"replicas of partition $p differ $clue")
    }
    kernel
  }

  for ((name, g) <- graphs; k <- ks) {
    test(s"cold state, $name graph, k = $k") {
      val order = new Random(k).shuffle((0 until g.nE).toVector).toArray
      assertSame(g, k, cold(g, k), order)
      assertSame(g, k, cold(g, k), order, alphaCap = 1.0, clue = "at alphaCap 1.0")
    }

    test(s"NE++-seeded state, $name graph, k = $k") {
      val csr = PrunedCsr.build(g, Some(1.0))
      assert(csr.h2hEdgeIds.nonEmpty)
      val s = cold(g, k)
      new NePlusPlus(csr, k, s.pids, s.loads, s.replicas, EdgeRemoval.Lazy).run()
      assertSame(g, k, s, csr.h2hEdgeIds)
      assertSame(g, k, s, csr.h2hEdgeIds, alphaCap = 1.0, clue = "at alphaCap 1.0")
    }

    test(s"unequal starting loads and replicas, $name graph, k = $k") {
      val rnd = new Random(1000 + k)
      val s = cold(g, k)
      val cap = math.ceil(g.nE / k.toDouble).toLong
      (0 until k).foreach { p =>
        // a third at capacity (alphaCap = 1.0), the rest anywhere below it
        s.loads(p) = if (rnd.nextInt(3) == 0) cap else rnd.nextInt(cap.toInt)
        (0 until g.nV).foreach(x => if (rnd.nextInt(8) == 0) s.replicas(p).set(x))
      }
      val edgeIds = Array.range(0, g.nE).filter(_ => rnd.nextBoolean())
      assertSame(g, k, s, edgeIds, alphaCap = 1.0)
      assertSame(g, k, s, edgeIds)
    }
  }

  test("loads preset at capacity take the all-full fallback, counted per edge") {
    for ((name, g) <- graphs; k <- ks) {
      val s = cold(g, k)
      val cap = math.ceil(1.05 * g.nE / k).toLong
      (0 until k).foreach(p => s.loads(p) = cap + p % 3)
      val edgeIds = Array.range(0, g.nE / 4)
      val kernel = assertSame(g, k, s, edgeIds, clue = s"$name k=$k")
      assert(kernel.fallbacks == edgeIds.length, s"$name k=$k")
      assert(kernel.scoredPartitions == 0L, s"$name k=$k")
    }
  }

  test("at most four partitions are scored per edge") {
    for ((name, g) <- graphs; k <- ks) {
      val csr = PrunedCsr.build(g, Some(1.0))
      val s = cold(g, k)
      new NePlusPlus(csr, k, s.pids, s.loads, s.replicas, EdgeRemoval.Lazy).run()
      val kernel = new InformedStreaming(g, k, s.pids, s.loads, s.replicas)
      kernel.run(csr.h2hEdgeIds)
      val edges = csr.h2hEdgeIds.length.toLong
      assert(kernel.scoredPartitions >= edges && kernel.scoredPartitions <= 4 * edges, s"$name k=$k")
      assert(kernel.fallbacks == 0L, s"$name k=$k")
      if (k > 1) assert(kernel.maskBitsVisited > 0L, s"$name k=$k")
    }
  }

  test("a non-positive lambda is rejected up front") {
    val g = TestGraphs.path(4)
    val s = cold(g, 2)
    intercept[IllegalArgumentException] {
      new InformedStreaming(g, 2, s.pids, s.loads, s.replicas, lambda = 0.0)
    }
  }
}
