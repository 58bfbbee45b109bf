// PSML_SECRET on a parameter seeds that parameter only. Branching on it is
// flagged; the call that follows the annotation in the source
// (`config_flag()`) must not turn into a secret function, so branching on
// its result elsewhere stays clean.

bool config_flag();

float leak_on_secret_param(const MatrixF& x,
                           PSML_SECRET const MatrixF& mask) {
  const bool flag = config_flag();
  if (mask.data()[0] > 0.0f) {  // EXPECT: secret-branch
    return flag ? x.data()[0] : 0.0f;
  }
  return 0.0f;
}

float clean_branch_on_config(const MatrixF& x) {
  if (config_flag()) {  // clean: config_flag is no secret function
    return x.data()[0];
  }
  return 0.0f;
}
