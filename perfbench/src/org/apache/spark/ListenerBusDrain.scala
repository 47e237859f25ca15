package org.apache.spark

/** Waits until every queued listener event has been delivered, so a
  * listener's counters are complete once the jobs it watched have ended.
  * The listener bus is `private[spark]`; this is the one call the benchmark
  * needs from it.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
