package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class GraphDataSpec extends SparkSpec {

  test("degrees count both endpoints of every edge") {
    val g = GraphData.fromEdges(4, Seq((0, 1), (0, 2), (0, 3), (1, 2)))
    assert(g.degrees.toSeq == Seq(3, 2, 2, 1))
  }

  private def referenceDegrees(g: GraphData): Seq[Int] = {
    val counts = (g.src ++ g.dst).groupBy(identity).map { case (v, es) => v -> es.length }
    (0 until g.nV).map(counts.getOrElse(_, 0))
  }

  test("degrees equal a plain reference count on random and power-law graphs") {
    for (g <- Seq(TestGraphs.random(200, 700, seed = 21), TestGraphs.powerLaw(500, 3000, gamma = 3.0, seed = 22)))
      assert(g.degrees.toSeq == referenceDegrees(g))
  }

  test("degrees are zero for isolated vertices and for an empty edge list") {
    val sparse = GraphData.fromEdges(10, Seq((0, 1), (2, 3), (1, 3)))
    assert(sparse.degrees.toSeq == Seq(1, 2, 1, 2, 0, 0, 0, 0, 0, 0))
    assert(sparse.degrees.toSeq == referenceDegrees(sparse))
    val manyIsolated = TestGraphs.random(1000, 50, seed = 23)
    assert(manyIsolated.degrees.toSeq == referenceDegrees(manyIsolated))
    assert(manyIsolated.degrees.count(_ == 0) >= 900)
    assert(GraphData.fromEdges(5, Seq.empty).degrees.toSeq == Seq.fill(5)(0))
    assert(GraphData.fromEdges(0, Seq.empty).degrees.isEmpty)
  }

  test("repeated reads of degrees return the same array") {
    val g = TestGraphs.random(50, 120, seed = 24)
    val first = g.degrees
    assert(g.degrees eq first)
    assert(g.degrees eq first)
  }

  test("threads reading degrees at once all get the same array") {
    val g = TestGraphs.powerLaw(2000, 20000, gamma = 3.0, seed = 25)
    val nThreads = 4
    val start = new java.util.concurrent.CyclicBarrier(nThreads)
    val seen = new java.util.concurrent.atomic.AtomicReferenceArray[Array[Int]](nThreads)
    val threads = (0 until nThreads).map { t =>
      new Thread(() => { start.await(); seen.set(t, g.degrees) })
    }
    threads.foreach(_.start())
    threads.foreach(_.join(60000))
    val first = seen.get(0)
    assert(first != null)
    (0 until nThreads).foreach(t => assert(seen.get(t) eq first, s"thread $t"))
    assert(first.toSeq == referenceDegrees(g))
  }

  test("mean degree is 2|E|/|V|") {
    val g = TestGraphs.star(5)
    assert(g.meanDegree === 2.0 * 5 / 6)
  }

  test("edge count and binary size") {
    val g = TestGraphs.path(10)
    assert(g.nE == 9)
    assert(g.binaryEdgeListBytes == 9 * 8)
  }

  test("fromEdges preserves edge orientation") {
    val g = GraphData.fromEdges(3, Seq((2, 1), (0, 2)))
    assert(g.src.toSeq == Seq(2, 0) && g.dst.toSeq == Seq(1, 2))
  }

  test("fromDF round-trips a DataFrame edge list") {
    import spark.implicits._
    val df = Seq((0, 1), (1, 2), (2, 3)).toDF("src", "dst")
    val g = GraphData.fromDF(df, 4)
    assert(g.nE == 3 && g.nV == 4)
    assert(g.src.toSeq.sorted == Seq(0, 1, 2))
  }

  test("fromDF accepts long ids within Int range") {
    import spark.implicits._
    val df = Seq((0L, 1L), (1L, 2L)).toDF("src", "dst")
    val g = GraphData.fromDF(df, 3)
    assert(g.degrees.toSeq == Seq(1, 2, 1))
  }

  test("fromDF rejects ids outside the declared vertex range") {
    import spark.implicits._
    val df = Seq((0, 7)).toDF("src", "dst")
    intercept[IllegalArgumentException](GraphData.fromDF(df, 4))
  }

  test("degrees agree with the DuckDB oracle") {
    import spark.implicits._
    val g = TestGraphs.random(30, 60, seed = 5)
    val edges = (0 until g.nE).map(e => (g.src(e), g.dst(e))).toDF("src", "dst")
    val sparkDeg = edges.select($"src".as("v")).union(edges.select($"dst".as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT v, COUNT(*) AS deg FROM (SELECT src AS v FROM edges UNION ALL SELECT dst FROM edges) GROUP BY v",
      "edges" -> edges)
    // and the driver-side degrees array matches the DataFrame
    val fromDf = sparkDeg.collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until g.nV).foreach { v =>
      assert(g.degrees(v).toLong == fromDf.getOrElse(v, 0L), s"vertex $v")
    }
  }

  test("misaligned src/dst arrays are rejected") {
    intercept[IllegalArgumentException](new GraphData(3, Array(0, 1), Array(1)))
  }
}
