package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.SparkMigrationExp

/** Spark micro-batch Megaphone under migration: per-batch wall times for
  * all-at-once vs batched vs fluid (the repro target's Structured-Streaming
  * -style table; also run as `bench repro.bench.SparkMigrationBench`).
  */
object SparkMigrationJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("spark-megaphone")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    println(s"per-batch wall time [ms] (moved state rows); migration from batch ${SparkMigrationExp.MigrateAt}")
    println(SparkMigrationExp.render(SparkMigrationExp.run(spark)))
    spark.stop()
  }
}
