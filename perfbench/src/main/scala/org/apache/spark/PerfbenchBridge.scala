package org.apache.spark

/** Spark delivers listener events on its own thread; the hook to wait for
  * that thread is package-private, hence this one-method bridge.
  */
object PerfbenchBridge {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
