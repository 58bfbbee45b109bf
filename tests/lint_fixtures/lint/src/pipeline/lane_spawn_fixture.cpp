// raw-thread-spawn clean twin: src/pipeline/ is a spawn owner (the
// engine's executors live here), so the spawn expression below must NOT be
// flagged by raw-thread-spawn. naked-thread still fires — no src/pipeline/
// file may mention the std::thread type — which pins down that the two
// rules police different things (type usage vs. thread birth).

void spawn_lane_worker() {
  std::thread t([] { lane_loop(); });  // EXPECT: naked-thread
  t.join();
}
