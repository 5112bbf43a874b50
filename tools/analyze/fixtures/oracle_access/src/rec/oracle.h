#pragma once
#ifndef FIXTURE_REC_ORACLE_H_
#define FIXTURE_REC_ORACLE_H_

namespace fixture::rec {

// Minimal stand-in for the metered oracle stack.
class BlackBoxRecommender {
 public:
  int QueryTopK(int user, int k) { return user + k; }
  int InjectUser(int profile) { return profile; }
  int Query(int user, int k) { return QueryTopK(user, k); }
};

}  // namespace fixture::rec

#endif  // FIXTURE_REC_ORACLE_H_
