tower { }
param {
  x = 2*t / (t^2 + 1);
  y = (t^2 - 1) / (t^2 + 1);
}
