package repro.core

/** The O(k) informed-streaming loop that [[InformedStreaming]] replaces:
  * recompute min/max load over all partitions, then score every partition
  * under capacity and keep the first with the highest score. Kept as the
  * oracle for the differential test; same arguments, same in-place updates.
  */
final class ReferenceInformedStreaming(
    g: GraphData,
    k: Int,
    pids: Array[Int],
    loads: Array[Long],
    replicas: Array[DenseBitset],
    lambda: Double = HdrfScoring.DefaultLambda,
    alphaCap: Double = 1.05,
) {
  private val capacity: Long = math.ceil(alphaCap * g.nE / k.toDouble).toLong

  def run(edgeIds: Array[Int]): Unit = {
    val deg = g.degrees
    var i = 0
    while (i < edgeIds.length) {
      val eid = edgeIds(i)
      val u = g.src(eid); val v = g.dst(eid)
      var minLoad = Long.MaxValue; var maxLoad = Long.MinValue
      var p = 0
      while (p < k) {
        if (loads(p) < minLoad) minLoad = loads(p)
        if (loads(p) > maxLoad) maxLoad = loads(p)
        p += 1
      }
      var best = -1
      var bestScore = Double.NegativeInfinity
      p = 0
      while (p < k) {
        if (loads(p) < capacity) {
          val s = HdrfScoring.score(deg(u), deg(v),
            replicas(p).get(u), replicas(p).get(v),
            loads(p), minLoad, maxLoad, lambda)
          if (s > bestScore) { bestScore = s; best = p }
        }
        p += 1
      }
      if (best < 0) {
        var q = 0
        while (q < k) { if (best < 0 || loads(q) < loads(best)) best = q; q += 1 }
      }
      require(pids(eid) < 0, s"edge $eid already assigned before streaming")
      pids(eid) = best
      loads(best) += 1
      replicas(best).set(u)
      replicas(best).set(v)
      i += 1
    }
  }
}
