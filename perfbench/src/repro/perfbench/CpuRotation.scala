package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

/** Moves the thread that created it round-robin over the CPUs the process
  * may run on, one CPU per [[step]], with `taskset`.
  *
  * On a shared VM single-thread speed differs by up to 40 % between vCPUs
  * and drifts over minutes. A thread left where the scheduler put it stays
  * on one vCPU for most of a run, so the run's median depends on where it
  * landed; rotating makes every run sample every vCPU equally.
  */
final class CpuRotation {
  private val tid = Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString

  /** The CPUs of the process's affinity list, e.g. `0-3,6`. */
  val cpus: IndexedSeq[Int] = {
    val line = Files.readAllLines(Paths.get("/proc/self/status")).asScala
      .find(_.startsWith("Cpus_allowed_list:"))
      .getOrElse(throw new IllegalStateException("no Cpus_allowed_list in /proc/self/status"))
    line.split(":")(1).trim.split(",").toIndexedSeq.flatMap { r =>
      r.split("-") match {
        case Array(a) => Seq(a.toInt)
        case Array(a, b) => a.toInt to b.toInt
      }
    }
  }
  private var next = 0

  /** Pin the thread to the next CPU and return it. */
  def step(): Int = {
    val cpu = cpus(next % cpus.size)
    next += 1
    pin(cpu.toString)
    cpu
  }

  /** Let the thread run on every CPU again; threads it starts later inherit
    * its affinity.
    */
  def release(): Unit = pin(cpus.mkString(","))

  private def pin(list: String): Unit = {
    val p = new ProcessBuilder("taskset", "-p", "-c", list, tid)
      .redirectOutput(ProcessBuilder.Redirect.DISCARD)
      .redirectError(ProcessBuilder.Redirect.INHERIT)
      .start()
    val code = p.waitFor()
    require(code == 0, s"taskset -p -c $list $tid exited with $code")
  }
}
