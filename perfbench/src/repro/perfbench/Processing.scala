package repro.perfbench

import java.nio.file.Path
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import repro.core.{GraphData, PartitionResult}
import repro.graphx.GraphXRunner

/** The GraphX layer: build the pre-partitioned graph, run PageRank
  * and connected components through [[GraphXRunner]], and count the shuffle
  * traffic that the partitioning's replication factor drives.
  */
object Processing {

  /** Fixed PageRank iterations per pass. */
  val PageRankIters = 3

  final case class Pass(buildNs: Long, pageRankNs: Long, ccNs: Long,
                        shuffleWriteBytes: Long, shuffleReadBytes: Long,
                        shuffleRecords: Long, tasks: Long) {
    def totalNs: Long = buildNs + pageRankNs + ccNs
  }

  /** Local session on `cores` cores; everything Spark writes stays under
    * `workDir`.
    */
  def session(cores: Int, workDir: Path): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()

  /** Sums shuffle metrics over the tasks that end while it is registered. */
  private final class ShuffleCounter extends SparkListener {
    val writeBytes, readBytes, records, tasks = new AtomicLong
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      val m = e.taskMetrics
      if (m != null) {
        writeBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
        records.addAndGet(m.shuffleWriteMetrics.recordsWritten)
        readBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      }
    }
  }

  /** One processing pass: `buildGraph`, PageRank, connected components.
    * The shuffle counter is registered only around the pass, and every
    * cached RDD is dropped afterwards so passes do not pile up in memory.
    */
  def pass(spark: SparkSession, g: GraphData, res: PartitionResult, trace: Trace): Pass = {
    val sc = spark.sparkContext
    val counter = new ShuffleCounter
    ListenerBusDrain(sc)
    sc.addSparkListener(counter)
    try trace.span("graphx.pass") {
      val t0 = System.nanoTime()
      val graph = trace.span("graphx.build")(GraphXRunner.buildGraph(spark, g, res))
      val t1 = System.nanoTime()
      trace.span("graphx.pagerank")(GraphXRunner.timePageRank(graph, PageRankIters))
      val t2 = System.nanoTime()
      trace.span("graphx.cc")(GraphXRunner.timeCc(graph))
      val t3 = System.nanoTime()
      ListenerBusDrain(sc)
      Pass(t1 - t0, t2 - t1, t3 - t2, counter.writeBytes.get, counter.readBytes.get,
        counter.records.get, counter.tasks.get)
    } finally {
      sc.removeSparkListener(counter)
      sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    }
  }

  /** Number of components GraphX's `connectedComponents` finds. */
  def componentCount(spark: SparkSession, g: GraphData, res: PartitionResult): Long = {
    val graph = GraphXRunner.buildGraph(spark, g, res)
    try graph.connectedComponents().vertices.map(_._2).distinct().count()
    finally spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
  }
}
