// Local-name fixture: a call to a lambda declared in the walked function
// reaches that lambda, whose body the walk covers inline where it is
// declared. It must not compose the summary of a project function that
// shares its name: here that would add gate_ -> entries_mutex_ and close a
// cycle with record()'s entries_mutex_ -> gate_ order.

class Ledger {
 public:
  // The one real order between the two locks.
  void record(int v) {
    sync::MutexLock l(entries_mutex_);
    sync::MutexLock g(gate_);
    total_ += v;
  }

  int sum_under_gate(const std::vector<int>& xs) {
    sync::MutexLock g(gate_);
    int total = 0;
    auto record = [&total](int v) { total += v; };
    for (int x : xs) record(x);  // clean: the local lambda, not record()
    return total;
  }

 private:
  sync::Mutex entries_mutex_;
  sync::Mutex gate_;
  int total_ = 0;
};
