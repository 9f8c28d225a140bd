package service

// FinishedKept is how many completed jobs' records a service keeps.
const FinishedKept = finishedKept
