"""Golden-reference suite: the engine against frozen digests.

``golden_digests.json`` holds sha256 digests of canonicalised outputs,
recorded from the object engine that served as ground truth before
the vectorized engine became the only one.  Any divergence found here
is a release blocker, never something to paper over with tolerances.
"""
