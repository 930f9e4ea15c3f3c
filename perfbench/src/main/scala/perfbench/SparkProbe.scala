package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark listener that files every job, stage and task under the
  * benchmark call that started it (`bulk_load`, `load`, `approx`, `exact`,
  * ...). The call is set as a local property on the driver thread before
  * the call and travels with each job the call submits.
  */
final class SparkProbe(sc: SparkContext) extends SparkListener {
  import SparkProbe._

  final class Totals {
    var jobs = 0L; var tasks = 0L; var recordsRead = 0L; var bytesRead = 0L
    var shuffleWrite = 0L; var output = 0L; var runMs = 0L; var gcMs = 0L
    val stageWallMs = mutable.ArrayBuffer.empty[Long]
  }

  private val totals = mutable.LinkedHashMap.empty[String, Totals]
  private val stageCall = mutable.HashMap.empty[Int, String]

  private def of(call: String): Totals = totals.getOrElseUpdate(call, new Totals)

  sc.addSparkListener(this)

  /** Runs `body` with every job it submits tagged as `call`. */
  def tagged[A](call: String)(body: => A): A = {
    sc.setLocalProperty(CallProperty, call)
    try body finally sc.setLocalProperty(CallProperty, null)
  }

  /** Totals per call once every event posted so far has been delivered. */
  def snapshot(): Map[String, Totals] = {
    org.apache.spark.PerfbenchBridge.drainListeners(sc)
    synchronized(totals.toMap)
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val call = Option(e.properties).flatMap(p => Option(p.getProperty(CallProperty))).getOrElse(Untagged)
    of(call).jobs += 1
    e.stageInfos.foreach(s => stageCall(s.stageId) = call)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for (call <- stageCall.get(info.stageId); t0 <- info.submissionTime; t1 <- info.completionTime)
      of(call).stageWallMs += t1 - t0
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = of(stageCall.getOrElse(e.stageId, Untagged))
    t.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      t.recordsRead += m.inputMetrics.recordsRead
      t.bytesRead += m.inputMetrics.bytesRead
      t.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      t.output += m.outputMetrics.bytesWritten
      t.runMs += m.executorRunTime
      t.gcMs += m.jvmGCTime
    }
  }
}

object SparkProbe {
  val CallProperty = "perfbench.call"
  val Untagged = "untagged"
}
