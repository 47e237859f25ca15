package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}

import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core._

/** The benchmark for one workload and one seed, in one JVM.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  *
  * `--trace 0` times `new Hep(tau).partition(g, k)` with nothing recorded
  * inside and prints the end-to-end metrics. `--trace 1` alternates that call
  * with the same pipeline rebuilt from its layers' public calls, a span around
  * each, then traces one GraphX pass over the partitioning, and prints the
  * per-layer metrics. The last stdout line is the JSON result; lines before
  * it start with `#`. Spark, trace files and temporary files stay under
  * `--work`.
  */
object Main {

  /** @param warmup    untimed calls before measuring, about 3 s of calls:
    *                  the JIT is still compiling the layers for that long
    * @param processes whether GraphX processes this workload's own graph
    * @param graph     input generator: (seed, scale) => graph
    */
  final case class Workload(name: String, tau: Double, k: Int, warmup: Int, processes: Boolean,
                            graph: (Long, Double) => GraphData)

  /** OK-proxy distribution (γ = 3, ~37.7 edges per raw id), 1 M edges. */
  private def social(seed: Long, scale: Double): GraphData =
    Inputs.powerLaw(seed, nVRaw = (26500 * scale).toInt, targetE = (1000000 * scale).toInt,
      gamma = 3.0)

  /** IT-proxy distribution and scale, 600 k edges. */
  private def web(seed: Long, scale: Double): GraphData =
    Inputs.web(seed, nVRaw = (20500 * scale).toInt, targetE = (600000 * scale).toInt,
      window = 48, hubFrac = 0.10, nHubs = 40)

  val Workloads: Seq[Workload] = Seq(
    // Most edges are h2h and stream through the O(k) HDRF loop at k = 128.
    Workload("social-tau1-k128", 1, 128, warmup = 4, processes = false, social),
    // High-locality input; GraphX processing dwarfs partitioning.
    Workload("web-graphx", 10, 32, warmup = 30, processes = true, web),
  )

  /** Input scale of the traced GraphX pass on the workloads that do not
    * process: a pass at k = 128 costs about a minute even at this scale,
    * mostly per-task overhead, and several minutes at full scale.
    */
  private val TracedGraphxScale = 0.05

  /** One timed call. Its pids are checked and then dropped: keeping every
    * call's result would fill the heap and make each young collection copy
    * the results still alive.
    */
  private final case class Call(ns: Long, allocBytes: Long, cpu: Int)

  /** Counts gathered around the layers of one traced call. */
  private final case class LayerCounts(
      colEntries: Long, highVertices: Long, h2hEdges: Long, modelBytes: Long,
      csrAllocBytes: Long, neppAllocBytes: Long, inMemEdges: Long,
      coreVertices: Long, cleanupRemovals: Long, lastPartitionEdges: Long)

  /** Operations attempted and failed, and whether every output check held. */
  private final class Tally {
    var attempted = 0
    var failed = 0
    var checksHold = true

    /** Run one operation, its output checks included; a throw is a failure. */
    def attempt[T](what: String)(op: => T): Option[T] = {
      attempted += 1
      try Some(op)
      catch {
        case NonFatal(e) =>
          failed += 1
          Console.err.println(s"FAILED $what: $e")
          None
      }
    }

    def check(what: String, ok: Boolean): Unit =
      if (!ok) { checksHold = false; Console.err.println(s"CHECK FAILED: $what") }

    def correct: Boolean = checksHold && failed == 0
  }

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def info(line: String): Unit = println(s"# $line")

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val code =
      try {
        val w = Workloads.find(_.name == opt("workload")).getOrElse(
          throw new IllegalArgumentException(
            s"unknown workload ${opt("workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
        run(w, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1",
          Paths.get(opt("work")))
        0
      } catch {
        case NonFatal(e) => e.printStackTrace(); 1
      }
    System.exit(code)
  }

  private def run(w: Workload, seed: Long, seconds: Double, traced: Boolean, work: Path): Unit = {
    val jvmNs = ManagementFactory.getRuntimeMXBean.getUptime * 1000000L

    // Set-up. The input is generated three times: equal fingerprints show
    // the generator is deterministic, and the median time enters setup_s.
    var g: GraphData = null
    val genNs = (1 to 3).map { _ =>
      val t0 = System.nanoTime()
      val gi = w.graph(seed, 1.0)
      val ns = System.nanoTime() - t0
      if (g == null) g = gi
      else require(Inputs.fingerprint(gi) == Inputs.fingerprint(g),
        s"generator is not deterministic: ${Inputs.fingerprint(gi)} vs ${Inputs.fingerprint(g)}")
      ns
    }
    Inputs.checkSimple(g)
    info(s"workload=${w.name} tau=${w.tau} k=${w.k} seed=$seed graph ${Inputs.fingerprint(g)}")

    val cpus = new CpuRotation
    val t0Warm = System.nanoTime()
    val (ref, _) = partition(w, g, cpus)
    Partitioners.validate(g, ref)
    val refHash = Inputs.hash(ref.pids)
    for (_ <- 2 to w.warmup)
      require(Inputs.hash(partition(w, g, cpus)._1.pids) == refHash, "Hep.partition is not deterministic")
    val warmNs = System.nanoTime() - t0Warm
    val setupS = (jvmNs + median(genNs.map(_.toDouble)) + warmNs) / 1e9
    info(f"setup: jvm ${jvmNs / 1e9}%.3f s, input ${genNs.map(_ / 1e9).map(x => f"$x%.3f").mkString("/")} s, " +
      f"warm-up ${warmNs / 1e9}%.3f s; pids ${refHash}%016x")

    val tally = new Tally
    def checkedCall(): Call = {
      val (res, c) = partition(w, g, cpus)
      Partitioners.validate(g, res)
      require(Inputs.hash(res.pids) == refHash, "pids differ from the first call's")
      c
    }
    val metrics = LinkedHashMap[String, (Double, String)]()
    val calls = ArrayBuffer[Call]()
    val start = System.nanoTime()
    def elapsedS = (System.nanoTime() - start) / 1e9

    if (!traced) {
      do tally.attempt("partition")(checkedCall()).foreach(calls += _)
      while (elapsedS < seconds)
      require(calls.nonEmpty, "no call succeeded")
      val ms = calls.map(_.ns / 1e6).toSeq
      val (tail, pct) = tailOf(ms)
      info(f"partition calls n=${ms.size}, tail = p$pct%.1f (10 samples beyond it)")
      info("median per CPU: " + calls.groupBy(_.cpu).toSeq.sortBy(_._1).map { case (cpu, cs) =>
        f"cpu$cpu ${median(cs.map(_.ns / 1e6).toSeq)}%.1f ms (n=${cs.size})" }.mkString(", "))
      metrics("partition_ms_p50") = (median(ms), "ms")
      metrics("partition_ms_tail") = (tail, "ms")
      metrics("rf") = (Partitioners.replicationFactor(g, ref), "ratio")
      metrics("alpha") = (Partitioners.alpha(ref), "ratio")
      metrics("alloc_bytes") = (median(calls.map(_.allocBytes.toDouble).toSeq), "bytes")
      metrics("setup_s") = (setupS, "s")
    } else {
      val trace = new Trace
      val counts = ArrayBuffer[LayerCounts]()
      val gc0 = gcMillis()
      do {
        tally.attempt("partition")(checkedCall()).foreach(calls += _)
        tally.attempt("traced partition")(tracedCall(trace, g, w, refHash, cpus)).foreach(counts += _)
      } while (elapsedS < seconds)
      val gcMs = gcMillis() - gc0
      require(calls.nonEmpty && counts.nonEmpty, "no call succeeded")

      // GraphX: warm on the processing workload; on the others one cold pass
      // over a smaller graph of the same kind, with the same tau and k.
      val (pg, pref) =
        if (w.processes) (g, ref)
        else { val sg = w.graph(seed, TracedGraphxScale); (sg, partition(w, sg, cpus)._1) }
      cpus.release() // Spark's threads would inherit the pinned affinity
      val spark = Processing.session(math.min(4, Runtime.getRuntime.availableProcessors), work)
      val pass =
        try {
          if (w.processes) Processing.pass(spark, pg, pref, new Trace) // warm-up, not kept
          val p = tally.attempt("graphx pass")(Processing.pass(spark, pg, pref, trace))
          info(s"graphx pass on ${Inputs.fingerprint(pg)}")
          if (w.processes) checkComponents(tally, spark, pg, pref)
          p.getOrElse(throw new IllegalStateException("the graphx pass failed"))
        } finally spark.stop()
      val path = work.resolve(s"trace-${w.name}-seed$seed.jsonl")
      trace.write(path)
      info(s"spans written to $path; traced calls n=${counts.size}")

      def spanMs(name: String) = median(trace.durationNs(name).map(_.toDouble)) / 1e6
      def count(f: LayerCounts => Long) = median(counts.map(f(_).toDouble).toSeq)
      val hepMs = spanMs("hep")
      val untracedMs = median(calls.map(_.ns / 1e6).toSeq)
      val allocBytes = median(calls.map(_.allocBytes.toDouble).toSeq)
      val streamMs = spanMs("stream.run")
      val h2h = count(_.h2hEdges)

      metrics("csr.build_ms") = (spanMs("csr.build"), "ms")
      metrics("csr.alloc_bytes") = (count(_.csrAllocBytes), "bytes")
      metrics("csr.col_entries") = (count(_.colEntries), "count")
      metrics("csr.high_vertices") = (count(_.highVertices), "count")
      metrics("csr.h2h_edges") = (h2h, "count")
      metrics("csr.mem_model_bytes") = (count(_.modelBytes), "bytes")
      metrics("nepp.run_ms") = (spanMs("nepp.run"), "ms")
      metrics("nepp.alloc_bytes") = (count(_.neppAllocBytes), "bytes")
      metrics("nepp.in_mem_edges") = (count(_.inMemEdges), "count")
      metrics("nepp.core_vertices") = (count(_.coreVertices), "count")
      metrics("nepp.cleanup_removals") = (count(_.cleanupRemovals), "count")
      metrics("nepp.last_partition_edges") = (count(_.lastPartitionEdges), "count")
      metrics("nepp.share") = (spanMs("nepp.run") / hepMs, "ratio")
      metrics("stream.run_ms") = (streamMs, "ms")
      metrics("stream.edges") = (h2h, "count")
      metrics("stream.ns_per_edge_k") = (streamMs * 1e6 / math.max(1.0, h2h * w.k), "ns")
      metrics("stream.share") = (streamMs / hepMs, "ratio")
      metrics("hep.traced_ms") = (hepMs, "ms")
      metrics("hep.self_ms") = (median(trace.selfNs("hep").map(_.toDouble)) / 1e6, "ms")
      metrics("hep.alloc_bytes") = (allocBytes, "bytes")
      metrics("memory.alloc_over_model") = (allocBytes / count(_.modelBytes), "ratio")
      metrics("quality.validate_ms") = (spanMs("quality.validate"), "ms")
      metrics("quality.rf_ms") = (spanMs("quality.rf"), "ms")
      metrics("graphx.build_ms") = (pass.buildNs / 1e6, "ms")
      metrics("graphx.pagerank_ms") = (pass.pageRankNs / 1e6, "ms")
      metrics("graphx.cc_ms") = (pass.ccNs / 1e6, "ms")
      metrics("graphx.process_ms") = (pass.totalNs / 1e6, "ms")
      metrics("graphx.shuffle_write_bytes") = (pass.shuffleWriteBytes.toDouble, "bytes")
      metrics("graphx.shuffle_read_bytes") = (pass.shuffleReadBytes.toDouble, "bytes")
      metrics("graphx.shuffle_records") = (pass.shuffleRecords.toDouble, "count")
      metrics("graphx.tasks") = (pass.tasks.toDouble, "count")
      metrics("jvm.gc_ms") = (gcMs.toDouble / (calls.size + counts.size), "ms")
      metrics("trace.overhead_ms") = (hepMs - untracedMs, "ms")
    }
    println(resultJson(tally, metrics))
  }

  /** One untraced `new Hep(tau).partition(g, k)` call, on the next CPU. The
    * graph is wrapped afresh so that degree computation, the first pass of
    * graph building, is inside the call (paper §5 times partitioning with
    * graph building).
    */
  private def partition(w: Workload, base: GraphData, cpus: CpuRotation): (PartitionResult, Call) = {
    val cpu = cpus.step()
    val a0 = allocatedBytes(); val t0 = System.nanoTime()
    val res = new Hep(w.tau).partition(new GraphData(base.nV, base.src, base.dst), w.k)
    val t1 = System.nanoTime(); val a1 = allocatedBytes()
    (res, Call(t1 - t0, a1 - a0, cpu))
  }

  /** `Hep.partition` rebuilt from its layers' public calls, a span around
    * each, on the next CPU; the pids must equal the untraced call's.
    */
  private def tracedCall(trace: Trace, base: GraphData, w: Workload, refHash: Long,
                         cpus: CpuRotation): LayerCounts = {
    cpus.step()
    trace.newCall()
    val g = new GraphData(base.nV, base.src, base.dst)
    val k = w.k
    val (res, counts) = trace.span("hep") {
      val a0 = allocatedBytes()
      val csr = trace.span("csr.build")(PrunedCsr.build(g, Some(w.tau)))
      val a1 = allocatedBytes()
      val pids = Array.fill(g.nE)(-1)
      val loads = new Array[Long](k)
      val replicas = Array.fill(k)(new DenseBitset(g.nV))
      val validBefore = validEntries(csr)
      val a2 = allocatedBytes()
      val nepp = trace.span("nepp.run") {
        val n = new NePlusPlus(csr, k, pids, loads, replicas, EdgeRemoval.Lazy)
        n.run()
        n
      }
      val a3 = allocatedBytes()
      val counts = LayerCounts(
        colEntries = csr.colLength, highVertices = csr.highCount,
        h2hEdges = csr.h2hEdgeIds.length, modelBytes = csr.memoryFootprintBytes(k),
        csrAllocBytes = a1 - a0, neppAllocBytes = a3 - a2, inMemEdges = csr.inMemEdgeCount,
        coreVertices = nepp.coreSize, cleanupRemovals = validBefore - validEntries(csr),
        lastPartitionEdges = loads(k - 1))
      trace.span("stream.run")(new InformedStreaming(g, k, pids, loads, replicas).run(csr.h2hEdgeIds))
      (PartitionResult(k, pids, new Hep(w.tau).name, 0L), counts)
    }
    trace.span("quality.validate")(Partitioners.validate(g, res))
    trace.span("quality.rf")(Partitioners.replicationFactor(g, res))
    require(Inputs.hash(res.pids) == refHash, "traced pipeline pids differ from Hep.partition's")
    counts
  }

  /** Σ valid adjacency entries over all vertices. */
  private def validEntries(csr: PrunedCsr): Long = {
    var s = 0L; var v = 0
    while (v < csr.g.nV) { s += csr.validDegree(v); v += 1 }
    s
  }

  /** GraphX's component count must equal a driver-side union-find's. */
  private def checkComponents(tally: Tally, spark: SparkSession, g: GraphData,
                              ref: PartitionResult): Unit =
    tally.attempt("components") {
      val expected = Inputs.componentCount(g)
      val got = Processing.componentCount(spark, g, ref)
      info(s"connected components: graphx $got, union-find $expected")
      tally.check(s"graphx found $got components, union-find $expected", got == expected)
    }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest sample with at least ten samples beyond it, and its
    * percentile; the maximum when there are ten or fewer.
    */
  private def tailOf(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.size
    if (n > 10) (s(n - 11), 100.0 * (n - 10) / n) else (s.last, 100.0)
  }

  private def resultJson(tally: Tally, metrics: LinkedHashMap[String, (Double, String)]): String = {
    val ms = metrics.map { case (name, (v, unit)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
      val num = if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
      s""""$name": {"value": $num, "unit": "$unit"}"""
    }
    s"""{"correct": ${tally.correct}, "attempted": ${tally.attempted}, "failed": ${tally.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}
