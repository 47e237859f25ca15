package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Pins the partition ids HEP produces on fixed seeded graphs. A change that
  * is meant to keep the partitioning (a faster kernel, a refactor) must keep
  * every fingerprint; one that changes the partitioning on purpose updates
  * them and says why. The values were recorded with informed streaming
  * scoring all k partitions per edge, the loop [[ReferenceInformedStreaming]]
  * keeps.
  */
class HepFingerprintSpec extends AnyFunSuite {

  private def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Order-sensitive hash of the pids. */
  private def hash(pids: Array[Int]): String = {
    var h = 0x243f6a8885a308d3L
    var i = 0
    while (i < pids.length) { h = mix(h ^ (pids(i).toLong + i.toLong * 0x9e3779b97f4a7c15L)); i += 1 }
    f"$h%016x"
  }

  private lazy val graph = TestGraphs.powerLaw(3000, 30000, gamma = 3.0, seed = 41)

  private val expected = Map(
    (1, 32) -> "52630b13666ac9ba",
    (1, 128) -> "c7024fec7623ee3f",
    (10, 32) -> "8c5343273e005b16",
    (10, 128) -> "dae50e34db4bb2be",
    (100, 32) -> "58888cd7b92cdc65",
    (100, 128) -> "c95d5b63b86bbb09",
  )

  test("the test graph streams h2h edges at HEP-1 and HEP-10") {
    assert(PrunedCsr.build(graph, Some(1.0)).h2hEdgeIds.length > 1000)
    assert(PrunedCsr.build(graph, Some(10.0)).h2hEdgeIds.length > 0)
  }

  for (((tau, k), fp) <- expected.toSeq.sortBy(_._1)) {
    test(s"HEP-$tau at k = $k keeps its pids fingerprint") {
      val res = new Hep(tau.toDouble).partition(graph, k)
      Partitioners.validate(graph, res)
      assert(hash(res.pids) == fp)
    }
  }
}
