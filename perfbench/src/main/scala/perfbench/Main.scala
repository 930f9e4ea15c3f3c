package perfbench

import java.nio.file.{Files, Path}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.{CoconutSpark, CoconutTree}
import repro.series.SeriesGen
import repro.storage.DiskModel

/** One run of one workload:
  * `--workload <name> --seed <n> --rounds <r> --seconds <s> --trace <0|1> --work <dir> --cores <k>`,
  * started by `run.py`.
  *
  * Set-up (input generation, Parquet write, session start, warm-up) comes
  * first; then whole rounds of the workload's operations run, one call at a
  * time: exactly `--rounds` of them, or with `--rounds 0` as many as start
  * within `--seconds` (at least one). The last line of standard output
  * is the result as JSON: end-to-end metrics with `--trace 0`, per-layer
  * metrics (and a span file under `--work`) with `--trace 1`.
  */
object Main {

  final case class Args(workload: String, seed: Long, rounds: Int, seconds: Double, trace: Boolean, work: Path, cores: Int)

  val LocalQuerySpec: LocalSpec =
    LocalSpec("walk", 200000, 64, 8, 6, 100, queries = 240, exactQueries = 36, fullExactQueries = 12, approxBatch = 10)
  /** The paper's default summarization, 16 segments x 8 bits. */
  val PaperSaxSpec: LocalSpec =
    LocalSpec("walk", 50000, 256, 16, 8, 100, queries = 240, exactQueries = 36, fullExactQueries = 12, approxBatch = 10)
  /** Its exact queries are the ones asked between insert batches. */
  val UpdateSpec: LocalSpec =
    LocalSpec("seismic", 240000, 64, 8, 6, 100, queries = 240, exactQueries = 0, fullExactQueries = 0, approxBatch = 10)
  val UpdateBatch = 1000
  val UpdateAskEvery = 2
  val SparkSpec: SparkWorkSpec = SparkWorkSpec(200000, 64, 8, 8, 64, approxQueries = 6, exactQueries = 6)
  /** Size of the scaled-down round run once, untimed, to warm the JIT. */
  val WarmN = 20000
  /** Parquet input writes per Spark run, for the median in `setup_s`. A
    * local run sets up once per process and runs several processes.
    */
  val SetupRepeats = 3

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case v   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $v")
    }
    val a = Args(need("workload"), need("seed").toLong, need("rounds").toInt, need("seconds").toDouble, trace,
                 Path.of(need("work")).toAbsolutePath, need("cores").toInt)
    require(a.rounds >= 0 && a.seconds > 0 && a.cores >= 1, s"bad --rounds, --seconds or --cores: $a")
    a
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val t = new Tally(new Trace(a.trace))
    val layers = mutable.LinkedHashMap.empty[String, Double]
    val e2e = a.workload match {
      case "local-query"     => local(a, t, layers, LocalQuerySpec, update = false)
      case "local-paper-sax" => local(a, t, layers, PaperSaxSpec, update = false)
      case "local-update"    => local(a, t, layers, UpdateSpec, update = true)
      case "spark-query"     => spark(a, t, layers, SparkSpec)
      case w => throw new IllegalArgumentException(s"unknown workload: $w")
    }
    println(e2e.toSeq.sortBy(_._1).map { case (k, v) => f"$k=$v%.6g" }.mkString("this process: ", " ", ""))
    report(a, t, e2e, layers)
    sys.exit(0)
  }

  /** Runs `a.rounds` whole rounds, or with 0 repeats them until `seconds`
    * have passed; returns the count.
    */
  def rounds(a: Args, t: Tally)(round: => Unit): Int = {
    val end = System.nanoTime() + (a.seconds * 1e9).toLong
    var r = 0
    while (r == 0 || (if (a.rounds > 0) r < a.rounds else System.nanoTime() < end)) {
      t.trace.span("round", r)(round)
      r += 1
    }
    r
  }

  private def median(xs: collection.Seq[Double]) = Stats.median(xs)

  def local(a: Args, t: Tally, layers: mutable.Map[String, Double], spec: LocalSpec, update: Boolean): Map[String, Double] = {
    val (genNs, (data, queries)) = Stats.timed((SeriesGen.dataset(spec.kind, spec.n, spec.len, a.seed),
                                                 SeriesGen.queries(spec.kind, spec.queries, spec.len, a.seed)))

    def workload(s: LocalSpec, d: Array[Array[Double]]): LocalWorkload =
      if (update) new LocalUpdate(s, s.n / 2, UpdateBatch, UpdateAskEvery, d, queries) else new LocalQuery(s, d, queries)
    val warmSpec = spec.copy(n = math.min(spec.n, WarmN))
    val (warmNs, _) = Stats.timed(warmUp(workload(warmSpec, data.take(warmSpec.n)), warmSpec, data, queries, spec))

    val w = workload(spec, data)
    val r = rounds(a, t)(w.round(t))
    val e2e = Map(
      "setup_s" -> (genNs + warmNs) / 1e9,
      "build_s" -> median(t.get("CTree.build_ns")) / 1e9,
      "approx_ms_p50" -> median(t.get("CTree.approx_ms")),
      "exact_ms_p50" -> median(t.get("CTree.exact_ns")) / 1e6,
      "workload_s" -> median(t.get("workload_ns")) / 1e9)
    println(s"rounds=$r exact_samples=${t.get("CTree.exact_ns").length} " +
            s"approx_batches=${t.get("CTree.approx_ms").length}")
    println(f"setup: generation ${genNs / 1e9}%.2f s, warm-up ${warmNs / 1e9}%.2f s")

    if (a.trace) {
      layers("gen.series_per_s") = spec.n / (genNs / 1e9)
      Layers.local(layers, t, w.inserted)
      if (t.failed < t.attempted) Layers.localIndex(layers, data, spec)
      Layers.series(layers, data, queries, spec.p, a.seed)
      Layers.bruteForce(layers, t, data, queries)
    }
    e2e
  }

  /** Runs a scaled-down round, then the calls a round makes most often
    * (approximate search) until the JIT has compiled them fully, and one
    * bulk load at full size. Without it a JVM's first round ran partly in
    * less optimised code, by a different share in each JVM.
    */
  def warmUp(small: LocalWorkload, smallSpec: LocalSpec, data: Array[Array[Double]],
             queries: Array[Array[Double]], spec: LocalSpec): Unit = {
    val scratch = new Tally(new Trace(false))
    small.round(scratch)
    for (materialized <- Seq(false, true)) scratch.attempt {
      val x = CoconutTree.bulkLoad(data.take(smallSpec.n), spec.p, spec.leafCap, smallSpec.memBytes, new DiskModel(), materialized)
      for (_ <- 1 to 12; q <- queries) x.approxSearch(q, 1)
    }
    scratch.attempt(CoconutTree.bulkLoad(data, spec.p, spec.leafCap, spec.memBytes, new DiskModel(), materialized = false))
  }

  def spark(a: Args, t: Tally, layers: mutable.Map[String, Double], spec: SparkWorkSpec): Map[String, Double] = {
    val dir = a.work.resolve("spark")
    val (sessionNs, session) = Stats.timed {
      SparkSession.builder()
        .master(s"local[${a.cores}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", dir.resolve("local").toString)
        .config("spark.sql.warehouse.dir", dir.resolve("warehouse").toString)
        .getOrCreate()
    }
    session.sparkContext.setLogLevel("WARN")
    try {
      val probe = if (a.trace) Some(new SparkProbe(session.sparkContext)) else None
      val (genNs, data) = Stats.timed(SeriesGen.dataset("walk", spec.n, spec.len, a.seed))
      val queries = SeriesGen.queries("walk", math.max(spec.approxQueries, spec.exactQueries), spec.len, a.seed)
      val w = new SparkQuery(session, spec, a.seed, dir.resolve("main"), probe, data, queries)
      val writeNs = median((1 to SetupRepeats).map(_ => Stats.timed(w.writeInput())._1.toDouble))
      val (warmNs, _) = Stats.timed {
        val small = spec.copy(n = WarmN, approxQueries = 1, exactQueries = 1)
        val s = new SparkQuery(session, small, a.seed, dir.resolve("warm"), None, data.take(WarmN), queries)
        s.writeInput()
        s.round(new Tally(new Trace(false)))
      }

      val r = rounds(a, t)(w.round(t))
      val e2e = Map(
        "setup_s" -> (sessionNs + writeNs + warmNs) / 1e9,
        "build_s" -> median(t.get("Spark.build_ns")) / 1e9,
        "approx_ms_p50" -> median(t.get("Spark.approx_ns")) / 1e6,
        "exact_ms_p50" -> median(t.get("Spark.exact_ns")) / 1e6,
        "workload_s" -> median(t.get("workload_ns")) / 1e9)
      println(s"rounds=$r exact_samples=${t.get("Spark.exact_ns").length} " +
              s"approx_samples=${t.get("Spark.approx_ns").length}")
      println(f"setup: session ${sessionNs / 1e9}%.2f s, input write ${writeNs / 1e9}%.2f s (median of $SetupRepeats), " +
              f"warm-up ${warmNs / 1e9}%.2f s")

      for (p <- probe) {
        layers("gen.series_per_s") = spec.n / (genNs / 1e9)
        layers("spark.load_s") = median(t.get("Spark.load_ns")) / 1e9
        layers("spark.index_mb") = w.indexBytes / 1e6
        layers("spark.approx_dist_ratio") = Stats.mean(t.get("Spark.approx_dist_ratio"))
        layers("spark.summarize_s") = Stats.timed(t.trace.span("spark.CoconutSpark.summarize")(w.call("summarize") {
          CoconutSpark.summarize(session.read.parquet(w.inputPath), spec.p).write.format("noop").mode("overwrite").save()
        }))._1 / 1e9
        layers("spark.schema_read_ms") = median((1 to 5).map { _ =>
          Stats.timed(t.trace.span("spark.read.parquet")(w.call("schema_read")(session.read.parquet(w.indexPath))))._1.toDouble
        }) / 1e6
        Layers.spark(layers, t.trace, p.snapshot(), Map("bulk_load" -> r, "load" -> r,
                                               "approx" -> r * spec.approxQueries, "exact" -> r * spec.exactQueries))
        Layers.series(layers, data, queries, spec.p, a.seed)
        Layers.bruteForce(layers, t, data, queries)
      }
      e2e
    } finally {
      session.stop()
      deleteTree(dir)
    }
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(x => Files.delete(x)) finally s.close()
    }

  def report(a: Args, t: Tally, e2e: Map[String, Double], layers: mutable.Map[String, Double]): Unit = {
    t.faults.foreach { case (k, n) => println(s"fault: $k (x$n)") }
    t.wrong.foreach { case (k, n) => println(s"wrong: $k (x$n)") }
    val metrics =
      if (!a.trace) Metrics.EndToEnd.map { case (k, u) => (k, e2e(k), u) }
      else {
        println(f"traced workload_s=${e2e("workload_s")}%.6f")
        layers("trace.spans") = t.trace.count
        val unknown = layers.keySet.toSet -- Metrics.PerLayer.map(_._1)
        require(unknown.isEmpty, s"per-layer metrics missing from the list: $unknown")
        Metrics.PerLayer.map { case (k, u) => (k, layers.getOrElse(k, 0.0), u) }
      }
    if (a.trace) {
      val file = a.work.resolve("traces").resolve(s"${a.workload}-seed${a.seed}.jsonl")
      t.faults.foreach { case (k, n) => t.trace.note(s"""{"fault":${Json.str(k)},"count":$n}""") }
      t.trace.write(file)
      println(s"spans: ${t.trace.count} written to $file")
    }
    val body = metrics.map { case (k, v, u) => s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
    println(s"""{"correct": ${t.wrong.isEmpty}, "attempted": ${t.attempted}, "failed": ${t.failed}, """ +
            s""""metrics": {${body.mkString(", ")}}}""")
  }
}
