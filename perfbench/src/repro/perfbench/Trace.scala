package repro.perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder. A span is opened around each call into a layer;
  * nested calls become children. Spans of one benchmark call share `call`.
  * Nothing is written until [[write]] at the end of the run.
  */
final class Trace {
  final class Span(val id: Int, val call: Int, val name: String, val parent: Int,
                   val start: Long) { var end: Long = 0L }

  private val spans = ArrayBuffer[Span]()
  private var open: List[Span] = Nil
  private var call = -1

  /** Start a new benchmark call; later root spans belong to it. */
  def newCall(): Unit = call += 1

  def span[T](name: String)(body: => T): T = {
    val s = new Span(spans.length, call, name, open.headOption.fold(-1)(_.id), System.nanoTime())
    spans += s
    open = s :: open
    try body
    finally { s.end = System.nanoTime(); open = open.tail }
  }

  /** Per span id: the time its direct children cover, in ns. */
  private def childNs: Array[Long] = {
    val c = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) c(s.parent) += s.end - s.start)
    c
  }

  /** Self time (duration minus the time its direct children cover) of every
    * span with this name, in ns.
    */
  def selfNs(name: String): Seq[Long] = {
    val c = childNs
    spans.filter(_.name == name).map(s => s.end - s.start - c(s.id)).toSeq
  }

  /** Total duration of every span with this name, in ns. */
  def durationNs(name: String): Seq[Long] =
    spans.filter(_.name == name).map(s => s.end - s.start).toSeq

  /** One JSON object per line: id, call, name, parent, start and end in ns
    * relative to the first span, self time in ns.
    */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = spans.headOption.fold(0L)(_.start)
    val c = childNs
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"call":${s.call},"name":"${s.name}","parent":${s.parent},""" +
        s""""start_ns":${s.start - t0},"end_ns":${s.end - t0},"self_ns":${s.end - s.start - c(s.id)}}""")
    } finally out.close()
  }
}
