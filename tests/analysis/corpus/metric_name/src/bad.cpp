namespace corpus {

void register_metrics(Registry& r) {
  r.counter("Frames-Received").add();
  r.gauge("openSessions").set(1);
  r.counter("2fast").add();
  r.counter("shared_0").add();
}

}  // namespace corpus
